// Command gpudpf is a CLI for the DPF core: generate key pairs, expand
// them, and report modeled execution profiles for the paper's GPU
// strategies.
//
//	gpudpf gen -bits 20 -index 1234 -out0 k0.bin -out1 k1.bin
//	gpudpf eval -key k0.bin -at 1234
//	gpudpf bench -bits 20 -batch 64 -prg chacha20 -strategy membound
package main

import (
	"crypto/rand"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"gpudpf/internal/dpf"
	"gpudpf/internal/model"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "gen":
		cmdGen(os.Args[2:])
	case "eval":
		cmdEval(os.Args[2:])
	case "bench":
		cmdBench(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: gpudpf {gen|eval|bench} [flags]")
	os.Exit(2)
}

func cmdGen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	bits := fs.Int("bits", 20, "tree depth (domain 2^bits)")
	index := fs.Uint64("index", 0, "secret index alpha")
	prgName := fs.String("prg", "aes128", "PRF")
	early := fs.Int("early", dpf.DefaultEarlyBits, "early-termination depth (0 = legacy full-depth wire-v1 keys)")
	out0 := fs.String("out0", "key0.bin", "party-0 key file")
	out1 := fs.String("out1", "key1.bin", "party-1 key file")
	fs.Parse(args)

	prg, err := dpf.NewPRG(*prgName)
	if err != nil {
		log.Fatalf("gpudpf gen: %v", err)
	}
	// Clamp the default depth for tiny trees like the protocol clients do,
	// so `gen -bits 2` keeps working; an explicitly requested depth that
	// does not fit still errors.
	if *early == dpf.DefaultEarlyBits {
		*early = dpf.ClampEarly(*early, *bits)
	}
	k0, k1, err := dpf.GenEarly(prg, *index, *bits, []uint32{1}, *early, rand.Reader)
	if err != nil {
		log.Fatalf("gpudpf gen: %v", err)
	}
	var raw []byte
	for _, pair := range []struct {
		path string
		k    *dpf.Key
	}{{*out0, &k0}, {*out1, &k1}} {
		if raw, err = pair.k.MarshalBinary(); err != nil {
			log.Fatalf("gpudpf gen: %v", err)
		}
		if err := os.WriteFile(pair.path, raw, 0o644); err != nil {
			log.Fatalf("gpudpf gen: %v", err)
		}
	}
	fmt.Printf("wrote %s and %s (%d bytes each, wire v%d, domain 2^%d, prg %s)\n",
		*out0, *out1, len(raw), dpf.WireVersion(raw), *bits, *prgName)
}

func cmdEval(args []string) {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	keyPath := fs.String("key", "key0.bin", "key file")
	at := fs.Uint64("at", 0, "evaluation index")
	prgName := fs.String("prg", "aes128", "PRF")
	fs.Parse(args)

	raw, err := os.ReadFile(*keyPath)
	if err != nil {
		log.Fatalf("gpudpf eval: %v", err)
	}
	var k dpf.Key
	if err := k.UnmarshalBinary(raw); err != nil {
		log.Fatalf("gpudpf eval: %v", err)
	}
	prg, err := dpf.NewPRG(*prgName)
	if err != nil {
		log.Fatalf("gpudpf eval: %v", err)
	}
	start := time.Now()
	v, err := dpf.EvalAt(prg, &k, *at)
	if err != nil {
		log.Fatalf("gpudpf eval: %v", err)
	}
	fmt.Printf("party %d share at %d: %v (%.1fµs)\n",
		k.Party, *at, v, float64(time.Since(start).Microseconds()))
}

func cmdBench(args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	bits := fs.Int("bits", 20, "tree depth")
	batch := fs.Int("batch", 64, "batch size")
	lanes := fs.Int("lanes", 64, "entry lanes (bytes/4)")
	prgName := fs.String("prg", "aes128", "PRF")
	stratName := fs.String("strategy", "membound", "branch | level | membound | coop | cpu1 | cpu32 (modeled on a V100; cpu* on a Xeon Gold 6230)")
	fs.Parse(args)

	prg, err := dpf.NewPRG(*prgName)
	if err != nil {
		log.Fatalf("gpudpf bench: %v", err)
	}
	strats := map[string]model.Modeler{
		"branch":   model.BranchParallel{},
		"level":    model.LevelByLevel{},
		"membound": model.MemBound{K: model.DefaultK, Fused: true},
		"coop":     model.CoopGroups{},
		"cpu1":     model.CPUBaseline{Threads: 1},
		"cpu32":    model.CPUBaseline{Threads: 32},
	}
	s, ok := strats[*stratName]
	if !ok {
		log.Fatalf("gpudpf bench: unknown strategy %q", *stratName)
	}
	rep, err := s.Model(model.TeslaV100(), prg, *bits, *batch, *lanes)
	if err != nil {
		log.Fatalf("gpudpf bench: %v", err)
	}
	fmt.Println(rep)
}
