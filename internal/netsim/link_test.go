package netsim

import (
	"testing"
	"time"
)

func TestTransferTime(t *testing.T) {
	l := FourG()
	// 300 KB at 60 Mbit/s = 300·1000·8 / 60e6 = 40ms (paper's comm budget
	// fits comfortably in the latency budget).
	got := l.TransferTime(300_000)
	want := 40 * time.Millisecond
	if got < want-time.Millisecond || got > want+time.Millisecond {
		t.Errorf("300KB over 4G = %v, want ≈%v", got, want)
	}
	if l.TransferTime(0) != 0 || l.TransferTime(-5) != 0 {
		t.Error("non-positive payloads should cost 0")
	}
}

func TestRoundTrip(t *testing.T) {
	l := LAN()
	rt := l.RoundTrip(1000, 1000)
	if rt <= l.RTT {
		t.Error("round trip should exceed bare RTT")
	}
	if rt != l.RTT+l.TransferTime(1000)+l.TransferTime(1000) {
		t.Error("round trip should be RTT + both transfers")
	}
}

func TestPresetsOrdering(t *testing.T) {
	if !(FourG().BandwidthBitsPerSec < LAN().BandwidthBitsPerSec) {
		t.Error("presets should order 4G < LAN in bandwidth")
	}
	if !(FourG().RTT > LAN().RTT) {
		t.Error("presets should order 4G > LAN in RTT")
	}
}
