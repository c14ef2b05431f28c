// Command gpudpf is a CLI for the DPF core: generate an aes128 key pair
// (wire v4, at the depth a 2^bits-row table serves), evaluate one key's
// share at one index, and report modeled execution profiles for the
// paper's GPU strategies under any of Table 5's PRFs (bench only models;
// it computes no PRF). The two parties' shares at -index sum to 1 mod
// 2^32, and to 0 anywhere else.
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
	out0 := fs.String("out0", "key0.bin", "party-0 key file")
	out1 := fs.String("out1", "key1.bin", "party-1 key file")
	fs.Parse(args)

	// Keys terminate at the depth a 2^bits-row table serves.
	k0, k1, err := dpf.Gen(dpf.NewAESPRG(), *index, *bits, 1, rand.Reader)
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
		*out0, *out1, len(raw), dpf.WireVersion(raw), *bits, dpf.PRGName)
}

func cmdEval(args []string) {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	keyPath := fs.String("key", "key0.bin", "key file")
	at := fs.Uint64("at", 0, "evaluation index")
	fs.Parse(args)

	raw, err := os.ReadFile(*keyPath)
	if err != nil {
		log.Fatalf("gpudpf eval: %v", err)
	}
	var k dpf.Key
	if err := k.UnmarshalBinary(raw); err != nil {
		log.Fatalf("gpudpf eval: %v", err)
	}
	start := time.Now()
	var v [1]uint32
	if err := dpf.EvalRange(dpf.NewAESPRG(), &k, *at, *at+1, v[:]); err != nil {
		log.Fatalf("gpudpf eval: %v", err)
	}
	fmt.Printf("party %d share at %d: %d (%.1fµs)\n",
		k.Party, *at, v[0], float64(time.Since(start).Microseconds()))
}

func cmdBench(args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	bits := fs.Int("bits", 20, "tree depth")
	batch := fs.Int("batch", 64, "batch size")
	lanes := fs.Int("lanes", 64, "entry lanes (bytes/4)")
	prfName := fs.String("prg", model.AES128.Name, "modeled PRF: aes128, sha256, chacha20, siphash, highway (Table 5)")
	stratName := fs.String("strategy", "membound", "branch | level | membound | coop | cpu1 | cpu32 (modeled on a V100; cpu* on a Xeon Gold 6230)")
	fs.Parse(args)

	prf, err := model.LookupPRF(*prfName)
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
	rep, err := s.Model(model.TeslaV100(), prf, *bits, *batch, *lanes)
	if err != nil {
		log.Fatalf("gpudpf bench: %v", err)
	}
	fmt.Println(rep)
}
