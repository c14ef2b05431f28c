// Package netsim models the client↔server network for the latency and
// communication budgets the paper evaluates under (§5.1: <300 KB and
// <300 ms per inference; §5.3 estimates network latency at 4G's 60 Mbit/s).
package netsim

import "time"

// Link is a symmetric client↔server network path.
type Link struct {
	// Name is a human-readable label.
	Name string
	// BandwidthBitsPerSec is the usable throughput in bits/second.
	BandwidthBitsPerSec float64
	// RTT is the round-trip propagation latency.
	RTT time.Duration
}

// FourG returns the paper's 4G model: 60 Mbit/s ([1] in the paper).
func FourG() Link {
	return Link{Name: "4G", BandwidthBitsPerSec: 60e6, RTT: 50 * time.Millisecond}
}

// LAN returns a datacenter-adjacent model (useful to isolate compute time).
func LAN() Link {
	return Link{Name: "LAN", BandwidthBitsPerSec: 10e9, RTT: 500 * time.Microsecond}
}

// TransferTime is the serialization delay for a payload of the given size.
func (l Link) TransferTime(bytes int64) time.Duration {
	if bytes <= 0 {
		return 0
	}
	sec := float64(bytes*8) / l.BandwidthBitsPerSec
	return time.Duration(sec * float64(time.Second))
}

// RoundTrip is the modeled latency of one request/response exchange: one
// RTT plus both payloads' serialization delays. The two PIR servers are
// queried in parallel, so a two-server exchange still costs one RoundTrip
// of the larger payload pair.
func (l Link) RoundTrip(upBytes, downBytes int64) time.Duration {
	return l.RTT + l.TransferTime(upBytes) + l.TransferTime(downBytes)
}
