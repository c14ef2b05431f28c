package main

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"gpudpf/internal/dpf"
	"gpudpf/internal/pir"
)

// sample is one answered key the reference re-derives: the server's share,
// the other party's key, the row the client asked for, and how many update
// batches the table had taken when it was asked.
type sample struct {
	row    uint64
	key1   []byte
	share0 []uint32
	asOf   int
}

// checkSamples is the reference the server is held to. For every sample
// it expands the party-1 key over the whole domain (dpf.EvalFull), takes
// the dot product of that share vector with the table rows, adds the
// server's party-0 share (pir.Reconstruct) and requires the row the
// client asked for. Rows come from rowAt(row, gen), never from the
// server's memory; genAt says which write generation of a row a sample
// must have seen. It returns one line per mismatching sample.
//
// The loop runs rows-outer so each row is generated once for all samples,
// and splits the rows over two goroutines; partial sums merge mod 2^32.
func checkSamples(rows, lanes int, rowAt func(row, gen int, dst []uint32), genAt func(row, asOf int) int, samples []sample) ([]string, error) {
	if len(samples) == 0 {
		return nil, nil
	}
	prg, err := dpf.NewPRG(prgName)
	if err != nil {
		return nil, err
	}
	// Ascending asOf, so a row's generation only ever moves forward while
	// the inner loop walks the samples.
	samples = slices.Clone(samples)
	sort.SliceStable(samples, func(i, j int) bool { return samples[i].asOf < samples[j].asOf })
	leaves := make([][]uint32, len(samples))
	for i, s := range samples {
		var k dpf.Key
		if err := k.UnmarshalBinary(s.key1); err != nil {
			return nil, fmt.Errorf("reference: party-1 key of sample %d: %w", i, err)
		}
		leaves[i] = dpf.EvalFull(prg, &k)
	}

	const parts = 2
	sums := make([][][]uint32, parts)
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			acc := make([][]uint32, len(samples))
			for i := range acc {
				acc[i] = make([]uint32, lanes)
			}
			buf := make([]uint32, lanes)
			for r := p * rows / parts; r < (p+1)*rows/parts; r++ {
				have := -1
				for i, s := range samples {
					if g := genAt(r, s.asOf); g != have {
						rowAt(r, g, buf)
						have = g
					}
					c := leaves[i][r]
					a := acc[i]
					for l, v := range buf {
						a[l] += c * v
					}
				}
			}
			sums[p] = acc
		}(p)
	}
	wg.Wait()

	var bad []string
	want := make([]uint32, lanes)
	for i, s := range samples {
		share1 := sums[0][i]
		for l, v := range sums[1][i] {
			share1[l] += v
		}
		got, err := pir.Reconstruct(s.share0, share1)
		if err != nil {
			bad = append(bad, fmt.Sprintf("row %d: %v", s.row, err))
			continue
		}
		rowAt(int(s.row), genAt(int(s.row), s.asOf), want)
		if !slices.Equal(got, want) {
			bad = append(bad, fmt.Sprintf("row %d after %d update batches: reconstructed row differs from the seeded table", s.row, s.asOf))
		}
	}
	return bad, nil
}
