// Passwordcheck: compromised-credential checking via PIR — the paper's
// example of a non-ML application of the GPU DPF (§1.1). The breached-
// password corpus is bucketed by a hash prefix; the client privately
// retrieves its password's bucket and checks membership locally. Unlike
// the k-anonymity scheme deployed in practice (which reveals a hash
// prefix), PIR reveals nothing at all about the password.
package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"log"

	"gpudpf/internal/pir"
)

const (
	bucketBits = 12 // 4096 buckets
	slotBytes  = 8  // truncated digest per breached password
	slots      = 16 // bucket capacity
)

func bucketOf(digest []byte) uint64 {
	return uint64(binary.LittleEndian.Uint16(digest)) % (1 << bucketBits)
}

func main() {
	breached := []string{
		"123456", "password", "qwerty", "letmein", "hunter2",
		"iloveyou", "dragon", "monkey", "sunshine", "princess",
	}

	// Server-side preprocessing: bucket truncated digests.
	table, err := pir.NewTable(1<<bucketBits, slots*slotBytes/4)
	if err != nil {
		log.Fatal(err)
	}
	fill := make(map[uint64]int)
	for _, pw := range breached {
		d := sha256.Sum256([]byte(pw))
		b := bucketOf(d[:])
		slot := fill[b]
		if slot >= slots {
			log.Fatalf("bucket %d overflow; grow the table", b)
		}
		fill[b]++
		row := table.Row(int(b))
		for i := 0; i < slotBytes/4; i++ {
			row[slot*slotBytes/4+i] = binary.LittleEndian.Uint32(d[4+i*4:])
		}
	}

	// Client and servers agree on the PRF: aes128, the one the servers
	// compute.
	client, err := pir.NewClient("aes128", table.NumRows, nil)
	if err != nil {
		log.Fatal(err)
	}
	s0, err := pir.NewServer(0, table)
	if err != nil {
		log.Fatal(err)
	}
	s1, err := pir.NewServer(1, table)
	if err != nil {
		log.Fatal(err)
	}
	session := &pir.TwoServer{Client: client, E0: pir.InProcess{Server: s0}, E1: pir.InProcess{Server: s1}}

	check := func(pw string) bool {
		d := sha256.Sum256([]byte(pw))
		rows, _, err := session.Fetch([]uint64{bucketOf(d[:])})
		if err != nil {
			log.Fatal(err)
		}
		row := rows[0]
		for slot := 0; slot < slots; slot++ {
			match := true
			for i := 0; i < slotBytes/4; i++ {
				if row[slot*slotBytes/4+i] != binary.LittleEndian.Uint32(d[4+i*4:]) {
					match = false
					break
				}
			}
			if match && row[slot*slotBytes/4] != 0 {
				return true
			}
		}
		return false
	}

	for _, pw := range []string{"hunter2", "correct-horse-battery-staple", "password", "gpudpf-rocks"} {
		status := "OK (not in breach corpus)"
		if check(pw) {
			status = "COMPROMISED — appears in breach corpus"
		}
		fmt.Printf("%-32q %s\n", pw, status)
	}
	fmt.Printf("\neach check cost one %dB key per server; the servers never saw the password or its hash\n",
		client.KeyBytes())
}
