// Command pirclient privately retrieves rows from a pair of pirserver
// instances. Neither server learns which index was queried. Keys are
// aes128's, the one PRF the servers compute, at the early-termination
// depth the -rows table serves (dpf.DefaultEarly).
//
//	pirclient -server0 host0:7700 -server1 host1:7701 -rows 65536 -index 12345
//
// With -repeat N the fetch runs N times and reports aggregate
// queries/second — a simple load generator for the servers' batched
// engine path.
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"
	"time"

	"gpudpf/internal/dpf"
	"gpudpf/internal/pir"
	"gpudpf/internal/shardnet"
)

func main() {
	s0 := flag.String("server0", "127.0.0.1:7700", "party-0 server address")
	s1 := flag.String("server1", "127.0.0.1:7701", "party-1 server address")
	rows := flag.Int("rows", 65536, "table rows (checked at dial)")
	indices := flag.String("index", "0", "comma-separated row indices to fetch privately")
	repeat := flag.Int("repeat", 1, "fetch the index set this many times and report aggregate QPS")
	flag.Parse()

	var wanted []uint64
	for _, part := range strings.Split(*indices, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
		if err != nil {
			log.Fatalf("pirclient: bad index %q: %v", part, err)
		}
		wanted = append(wanted, v)
	}

	client, err := pir.NewClient(dpf.PRGName, *rows, nil)
	if err != nil {
		log.Fatalf("pirclient: %v", err)
	}
	// Each server's hello must state this client's PRF, table (and the
	// depth it gives) and that server's party, or the dial fails naming
	// both values.
	pin := shardnet.Options{PRG: dpf.PRGName, Rows: *rows}
	e0, err := pir.Dial(*s0, pin)
	if err != nil {
		log.Fatalf("pirclient: server0 %s: %v", *s0, err)
	}
	defer e0.Close()
	pin.Party = 1
	e1, err := pir.Dial(*s1, pin)
	if err != nil {
		log.Fatalf("pirclient: server1 %s: %v", *s1, err)
	}
	defer e1.Close()
	ts := &pir.TwoServer{Client: client, E0: e0, E1: e1}
	start := time.Now()
	got, stats, err := ts.Fetch(wanted)
	if err != nil {
		log.Fatalf("pirclient: %v", err)
	}
	for i := 1; i < *repeat; i++ {
		if _, _, err := ts.Fetch(wanted); err != nil {
			log.Fatalf("pirclient: repeat %d: %v", i, err)
		}
	}
	elapsed := time.Since(start)
	for q, idx := range wanted {
		fmt.Printf("row %d: % x ...\n", idx, head(got[q], 8))
	}
	fmt.Printf("communication: %d bytes up, %d bytes down (%d bytes/query/server key)\n",
		stats.UpBytes, stats.DownBytes, client.KeyBytes())
	if *repeat > 1 {
		total := *repeat * len(wanted)
		fmt.Printf("load: %d queries in %v (%.0f queries/sec)\n",
			total, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds())
	}
}

func head(row []uint32, n int) []uint32 {
	if len(row) < n {
		return row
	}
	return row[:n]
}
