package gpudpf_test

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowlist names the exported identifiers of module gpudpf that no
// non-test code references and that stay anyway, each with its reason. It
// may only shrink: TestExportedSurfaceHasCallers fails on an entry that has
// gained a caller or no longer exists.
var surfaceAllowlist = map[string]string{
	"engine.Cluster.Heal":            "ROADMAP item 18(b): a -group front heals a quarantined member",
	"core.Service.UpdateEmbeddings":  "the paper's §4.2 update path; ROADMAP items 6(b) and 6(d) call it",
	"dpf.Gen":                        "default-depth key generation, the reference most tests build keys with (binaries call GenEarly)",
	"dpf.EvalRange":                  "the one-key pruned range walk (§3.2.7), the scalar statement of what the executor's range descent computes",
	"dpf.LeafLane":                   "the scalar leaf read the batched leaf kernels are pinned to",
	"dpf.ScalarExpandBatch":          "the reference every native ExpandBatch must match bit for bit",
	"batchpir.ExpectedRetrievalRate": "the analytic PBR rate TestExpectedRetrievalRate checks BuildPlan against",
	"store.Snapshot.Row":             "the one-row reader store's paged and page-table tests read epochs through",
	"netsim.LAN":                     "the near-zero link core and system tests model the network with",
	"serving.Front.Retunes":          "TestAdaptiveFrontP50WithinStaticTCP's precondition that its adaptive run re-tuned",
}

// surfaceTags are the build configurations the surface check covers: the
// default one (amd64 asm dispatch) and purego (every portable fallback). A
// name that either configuration uses is used.
var surfaceTags = []string{"", "purego"}

// listedPackage is the part of `go list -json` output the surface check reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Module     *struct{ Path string }
}

// TestExportedSurfaceHasCallers type-checks the non-test code of both
// modules (gpudpf and gpudpf/bench, the examples and binaries included) and
// fails on any exported package-level name or exported method defined in
// gpudpf that no non-test file references outside its own declaration. A
// type's declaration covers its methods. A method also counts as used when
// its type implements an interface, declared in the module or the standard
// library, that has the method. Every package is internal, so an exported
// name only tests call is dead weight, not API: delete it, or give it a
// caller, or name it in surfaceAllowlist with the reason it stays.
func TestExportedSurfaceHasCallers(t *testing.T) {
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", nil)
	parsed := map[string]*ast.File{}
	declared := map[string]token.Position{}
	used := map[string]bool{}
	for _, tags := range surfaceTags {
		var pkgs []*listedPackage
		for _, dir := range []string{".", "bench"} {
			pkgs = append(pkgs, goListDeps(t, dir, tags)...)
		}
		c := &surfaceChecker{
			fset:   fset,
			std:    std,
			parsed: parsed,
			listed: map[string]*listedPackage{},
			done:   map[string]*types.Package{},
			info:   &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
		}
		for _, p := range pkgs {
			c.listed[p.ImportPath] = p
		}
		for _, p := range pkgs {
			if _, err := c.Import(p.ImportPath); err != nil {
				t.Fatalf("tags %q: type-check %s: %v", tags, p.ImportPath, err)
			}
		}
		c.collect(declared, used)
	}
	var dead []string
	for key, pos := range declared {
		_, allowed := surfaceAllowlist[key]
		if !used[key] && !allowed {
			dead = append(dead, key+" ("+filepath.Base(pos.Filename)+")")
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported %s has no caller outside tests", d)
	}
	for key := range surfaceAllowlist {
		if _, ok := declared[key]; !ok {
			t.Errorf("surfaceAllowlist names %s, which no longer exists: drop the entry", key)
		} else if used[key] {
			t.Errorf("surfaceAllowlist names %s, which now has a caller: drop the entry", key)
		}
	}
}

// goListDeps lists the non-test packages of the module in dir and their
// dependencies under the given build tags, leaving out the standard library.
func goListDeps(t *testing.T, dir, tags string) []*listedPackage {
	t.Helper()
	cmd := exec.Command(goTool(), "list", "-deps", "-json", "-tags", tags, "./...")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list -deps -tags %q in %s: %v", tags, dir, err)
	}
	var pkgs []*listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			return pkgs
		} else if err != nil {
			t.Fatalf("go list -json in %s: %v", dir, err)
		}
		if p.Module != nil {
			pkgs = append(pkgs, p)
		}
	}
}

// surfaceChecker type-checks one build configuration's module packages
// through itself as the importer, so every reference into a module package
// resolves to the one object its declaration made; the standard library
// comes from export data.
type surfaceChecker struct {
	fset   *token.FileSet
	std    types.Importer
	parsed map[string]*ast.File // by file name, shared across configurations
	listed map[string]*listedPackage
	done   map[string]*types.Package
	files  []*ast.File // gpudpf's files of this configuration
	info   *types.Info
}

func (c *surfaceChecker) Import(path string) (*types.Package, error) {
	if pkg, ok := c.done[path]; ok {
		return pkg, nil
	}
	p, ok := c.listed[path]
	if !ok {
		return c.std.Import(path)
	}
	var files []*ast.File
	for _, name := range p.GoFiles {
		name = filepath.Join(p.Dir, name)
		f, ok := c.parsed[name]
		if !ok {
			var err error
			if f, err = parser.ParseFile(c.fset, name, nil, parser.SkipObjectResolution); err != nil {
				return nil, err
			}
			c.parsed[name] = f
		}
		files = append(files, f)
	}
	if p.Module.Path == "gpudpf" {
		c.files = append(c.files, files...)
	}
	pkg, err := (&types.Config{Importer: c}).Check(path, c.fset, files, c.info)
	c.done[path] = pkg
	return pkg, err
}

// collect adds this configuration's exported gpudpf names to declared and
// the names its code uses to used, both by surfaceKey.
func (c *surfaceChecker) collect(declared map[string]token.Position, used map[string]bool) {
	// own holds each declaration's extent; a use inside it does not count.
	type span struct{ pos, end token.Pos }
	own := map[string][]span{}
	for _, f := range c.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				obj := c.info.Defs[d.Name]
				if obj == nil {
					continue
				}
				key := surfaceKey(obj)
				own[key] = append(own[key], span{d.Pos(), d.End()})
				if recv, ok := recvType(obj).(*types.Named); ok {
					// A method belongs to its type's declaration.
					tkey := surfaceKey(recv.Obj())
					own[tkey] = append(own[tkey], span{d.Pos(), d.End()})
				}
				if obj.Exported() {
					declared[key] = c.fset.Position(d.Pos())
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					var names []*ast.Ident
					switch s := s.(type) {
					case *ast.TypeSpec:
						names = []*ast.Ident{s.Name}
					case *ast.ValueSpec:
						names = s.Names
					}
					for _, id := range names {
						if c.info.Defs[id] == nil {
							continue
						}
						key := surfaceKey(c.info.Defs[id])
						own[key] = append(own[key], span{s.Pos(), s.End()})
						if id.IsExported() {
							declared[key] = c.fset.Position(id.Pos())
						}
					}
				}
			}
		}
	}
	for id, obj := range c.info.Uses {
		if obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), "gpudpf") {
			continue
		}
		if recvType(obj) == nil && obj.Parent() != obj.Pkg().Scope() {
			continue // a field or a local name
		}
		key := surfaceKey(obj)
		inside := false
		for _, s := range own[key] {
			inside = inside || (s.pos <= id.Pos() && id.Pos() < s.end)
		}
		if !inside {
			used[key] = true
		}
	}
	// A method an interface requires is called through the interface: one
	// this configuration's code declares (named or not), one a standard
	// package it imports declares, or one the errors package asserts.
	ifaces := map[string][]*types.Interface{}
	addIface := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if n, generic := t.(*types.Named); !ok || generic && n.TypeParams().Len() > 0 {
			return
		}
		for i := 0; i < it.NumMethods(); i++ {
			ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
		}
	}
	for _, obj := range c.info.Defs {
		if recv := recvType(obj); recv != nil {
			addIface(recv) // a no-op for a concrete type's method
		}
	}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		if !strings.HasPrefix(p.Path(), "gpudpf") {
			for _, name := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
					addIface(tn.Type())
				}
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range c.done {
		walk(p)
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, name := range errorsUnnamed.Scope().Names() {
		addIface(errorsUnnamed.Scope().Lookup(name).Type())
	}
	for _, obj := range c.info.Defs {
		named, ok := recvType(obj).(*types.Named)
		if !ok || !obj.Exported() || !strings.HasPrefix(obj.Pkg().Path(), "gpudpf") || named.TypeParams().Len() > 0 {
			continue
		}
		for _, it := range ifaces[obj.Name()] {
			if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
				used[surfaceKey(obj)] = true
				break
			}
		}
	}
}

// recvType is the type a method is declared on, without its pointer, or
// nil when obj is no method.
func recvType(obj types.Object) types.Type {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	recv := fn.Origin().Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	if p, ok := recv.Type().(*types.Pointer); ok {
		return p.Elem()
	}
	return recv.Type()
}

// errorsUnnamed holds the unnamed interfaces through which errors.Is, As
// and Unwrap call an error's own methods.
var errorsUnnamed = func() *types.Package {
	const src = `package errors
type (
	unwrap    interface{ Unwrap() error }
	unwrapAll interface{ Unwrap() []error }
	is        interface{ Is(error) bool }
	as        interface{ As(any) bool }
)`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "errors.go", src, 0)
	if err != nil {
		panic(err)
	}
	pkg, err := new(types.Config).Check("errors", fset, []*ast.File{f}, nil)
	if err != nil {
		panic(err)
	}
	return pkg
}()

// surfaceKey names a package-level object or method by its package path
// (without the module's "gpudpf/" and "internal/") and, for a method, its
// receiver type: "engine.Cluster.Heal".
func surfaceKey(obj types.Object) string {
	path := strings.TrimPrefix(strings.TrimPrefix(obj.Pkg().Path(), "gpudpf/"), "internal/")
	switch recv := recvType(obj).(type) {
	case nil:
		return path + "." + obj.Name()
	case *types.Named:
		return path + "." + recv.Origin().Obj().Name() + "." + obj.Name()
	default: // a method of an unnamed interface
		return path + ".(interface)." + obj.Name()
	}
}
