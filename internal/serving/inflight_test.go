package serving

import (
	"encoding/binary"
	"errors"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// slotKey encodes (request id, slot) as a key; the recording handler
// answers a key with the same two numbers, so a caller can check that
// every answer landed in the slot of the key it was computed from.
func slotKey(req, slot int) []byte {
	k := make([]byte, 8)
	binary.LittleEndian.PutUint32(k, uint32(req))
	binary.LittleEndian.PutUint32(k[4:], uint32(slot))
	return k
}

func slotKeys(req, n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = slotKey(req, i)
	}
	return keys
}

// echoSlots answers every key with the (request id, slot) it encodes.
func echoSlots(batch [][]byte) [][]uint32 {
	out := make([][]uint32, len(batch))
	for i, k := range batch {
		out[i] = []uint32{binary.LittleEndian.Uint32(k), binary.LittleEndian.Uint32(k[4:])}
	}
	return out
}

func checkSlots(t *testing.T, req int, answers [][]uint32) {
	t.Helper()
	for i, a := range answers {
		if len(a) != 2 || a[0] != uint32(req) || a[1] != uint32(i) {
			t.Errorf("request %d slot %d holds answer %v", req, i, a)
		}
	}
}

// recorder is a Handler that keeps every batch it was handed and the
// highest number of calls it ever saw in progress at once. With gate set,
// a call does not return before gate calls are in progress together, so a
// batcher that cannot overlap that many batches hangs the test rather
// than passing it by luck.
type recorder struct {
	gate int

	mu      sync.Mutex
	batches [][][]byte
	cur     int
	peak    int
	full    chan struct{} // closed once gate calls overlapped
}

func newRecorder(gate int) *recorder { return &recorder{gate: gate, full: make(chan struct{})} }

func (r *recorder) handle(batch [][]byte) ([][]uint32, error) {
	r.mu.Lock()
	r.batches = append(r.batches, batch)
	r.cur++
	if r.cur > r.peak {
		r.peak = r.cur
		if r.peak == r.gate {
			close(r.full)
		}
	}
	r.mu.Unlock()
	if r.gate > 1 {
		select {
		case <-r.full:
		case <-time.After(10 * time.Second):
			return nil, errors.New("recorder: the handler calls never overlapped")
		}
	}
	r.mu.Lock()
	r.cur--
	r.mu.Unlock()
	return echoSlots(batch), nil
}

// TestSubmitAllOneBatchPerRequest: goroutines submitting requests of
// exactly MaxBatch keys each get one batch of their own — the request's
// keys, in order, nobody else's — every answer lands in its slot, and the
// handler runs on at most GOMAXPROCS goroutines at once and on two as
// soon as there are two processors (on one, behaviour is the old single
// worker's).
func TestSubmitAllOneBatchPerRequest(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		restore := runtime.GOMAXPROCS(procs)
		const maxBatch, submitters, perSubmitter = 8, 6, 25
		rec := newRecorder(min(procs, 2))
		b, err := NewBatcher(Policy{MaxBatch: maxBatch, MaxDelay: time.Hour}, rec.handle)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < submitters; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perSubmitter; i++ {
					req := g*perSubmitter + i
					answers, err := b.SubmitAll(slotKeys(req, maxBatch))
					if err != nil {
						t.Errorf("procs %d request %d: %v", procs, req, err)
						return
					}
					checkSlots(t, req, answers)
				}
			}(g)
		}
		wg.Wait()
		b.Close()
		runtime.GOMAXPROCS(restore)
		if len(rec.batches) != submitters*perSubmitter {
			t.Errorf("procs %d: %d batches for %d requests", procs, len(rec.batches), submitters*perSubmitter)
		}
		for _, batch := range rec.batches {
			if len(batch) != maxBatch {
				t.Errorf("procs %d: batch of %d keys, want %d", procs, len(batch), maxBatch)
				continue
			}
			checkSlots(t, int(binary.LittleEndian.Uint32(batch[0])), echoSlots(batch))
		}
		if rec.peak > procs || rec.peak < min(procs, 2) {
			t.Errorf("procs %d: handler ran on %d goroutines at once", procs, rec.peak)
		}
	}
}

// TestSubmitAllCutsAndDeadline: a request longer than MaxBatch is cut into
// whole batches plus a remainder that the deadline flushes; a request
// shorter than MaxBatch is one deadline-flushed batch.
func TestSubmitAllCutsAndDeadline(t *testing.T) {
	const maxBatch = 4
	for _, tc := range []struct {
		keys  int
		sizes []int
	}{
		{keys: 2*maxBatch + 3, sizes: []int{3, maxBatch, maxBatch}},
		{keys: 2 * maxBatch, sizes: []int{maxBatch, maxBatch}},
		{keys: maxBatch - 1, sizes: []int{maxBatch - 1}},
	} {
		rec := newRecorder(0)
		b, err := NewBatcher(Policy{MaxBatch: maxBatch, MaxDelay: time.Millisecond}, rec.handle)
		if err != nil {
			t.Fatal(err)
		}
		answers, err := b.SubmitAll(slotKeys(7, tc.keys))
		if err != nil {
			t.Fatal(err)
		}
		b.Close()
		if len(answers) != tc.keys {
			t.Fatalf("%d keys: %d answers", tc.keys, len(answers))
		}
		checkSlots(t, 7, answers)
		var sizes []int
		for _, batch := range rec.batches {
			sizes = append(sizes, len(batch))
		}
		// Whole batches run on goroutines of their own, so only the
		// multiset of sizes is fixed.
		slices.Sort(sizes)
		if !slices.Equal(sizes, tc.sizes) {
			t.Errorf("%d keys: batch sizes %v, want %v", tc.keys, sizes, tc.sizes)
		}
	}
}

// TestSubmitAllMixedSizes: seeded request sizes on either side of MaxBatch
// from several goroutines, against a short deadline: whatever batches
// form, each holds whole contiguous runs of the requests in it and every
// answer lands in its slot.
func TestSubmitAllMixedSizes(t *testing.T) {
	const seed = 0x5eed18
	const maxBatch, submitters, perSubmitter = 8, 4, 40
	rec := newRecorder(0)
	b, err := NewBatcher(Policy{MaxBatch: maxBatch, MaxDelay: 200 * time.Microsecond}, rec.handle)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var offered atomic.Int64
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, uint64(g)))
			for i := 0; i < perSubmitter; i++ {
				req, n := g*perSubmitter+i, 1+rng.IntN(3*maxBatch)
				offered.Add(int64(n))
				answers, err := b.SubmitAll(slotKeys(req, n))
				if err != nil {
					t.Errorf("seed %#x request %d: %v", seed, req, err)
					return
				}
				checkSlots(t, req, answers)
			}
		}(g)
	}
	wg.Wait()
	b.Close()
	served := 0
	for _, batch := range rec.batches {
		served += len(batch)
		ids := echoSlots(batch)
		runs := map[uint32]bool{}
		for i, cur := range ids {
			if i > 0 && cur[0] == ids[i-1][0] {
				if cur[1] != ids[i-1][1]+1 {
					t.Errorf("seed %#x: request %d's slots %d, %d adjacent in one batch", seed, cur[0], ids[i-1][1], cur[1])
				}
				continue
			}
			if runs[cur[0]] {
				t.Errorf("seed %#x: request %d's keys in two runs of one batch", seed, cur[0])
			}
			runs[cur[0]] = true
		}
	}
	if accepted, shed := b.Counts(); int64(served) != offered.Load() || int64(accepted) != offered.Load() || shed != 0 {
		t.Errorf("seed %#x: offered %d keys, served %d, accepted %d, shed %d", seed, offered.Load(), served, accepted, shed)
	}
}

// TestRequestShedWhole: at the MaxQueue bound a request is refused whole —
// none of its keys reaches the handler, Accepted + Shed equals the keys
// offered — and a request larger than the bound is admitted once nothing
// else is queued.
func TestRequestShedWhole(t *testing.T) {
	const maxBatch, maxQueue = 4, 6
	release := make(chan struct{})
	entered := make(chan struct{}, 4)
	var mu sync.Mutex
	seen := map[uint32]int{} // request id → keys handled
	b, err := NewBatcher(Policy{MaxBatch: maxBatch, MaxDelay: time.Hour, MaxQueue: maxQueue}, func(batch [][]byte) ([][]uint32, error) {
		mu.Lock()
		for _, k := range batch {
			seen[binary.LittleEndian.Uint32(k)]++
		}
		mu.Unlock()
		entered <- struct{}{}
		<-release
		return make([][]uint32, len(batch)), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	first := make(chan error, 1)
	go func() { _, err := b.SubmitAll(slotKeys(1, maxBatch)); first <- err }()
	<-entered // request 1 is in service: 4 of 6 queue slots taken

	// Two of request 2's four keys would fit; the request is shed whole.
	if _, err := b.SubmitAll(slotKeys(2, maxBatch)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("request past the bound: %v, want ErrOverloaded", err)
	}
	if accepted, shed := b.Counts(); accepted != maxBatch || shed != maxBatch || b.Arrivals() != 2*maxBatch {
		t.Fatalf("accepted %d shed %d arrivals %d, want %d / %d / %d", accepted, shed, b.Arrivals(), maxBatch, maxBatch, 2*maxBatch)
	}
	release <- struct{}{}
	if err := <-first; err != nil {
		t.Fatal(err)
	}

	// Larger than MaxQueue, but the queue is empty: admitted, not starved.
	big := make(chan error, 1)
	go func() { _, err := b.SubmitAll(slotKeys(3, 2*maxBatch)); big <- err }()
	for i := 0; i < 2; i++ {
		<-entered
		release <- struct{}{}
	}
	if err := <-big; err != nil {
		t.Fatalf("request larger than MaxQueue on an empty queue: %v", err)
	}
	b.Close()
	if seen[1] != maxBatch || seen[2] != 0 || seen[3] != 2*maxBatch {
		t.Errorf("handler saw %v keys per request; the shed request must contribute none", seen)
	}
	if accepted, shed := b.Counts(); accepted+shed != b.Arrivals() || shed != maxBatch {
		t.Errorf("accepted %d + shed %d != %d keys offered", accepted, shed, b.Arrivals())
	}
}

// TestCloseDrainsInFlightAndPending: Close with one batch in the handler
// and another pending runs the pending one, waits for both, fails later
// submits, and leaves no goroutine behind.
func TestCloseDrainsInFlightAndPending(t *testing.T) {
	before := runtime.NumGoroutine()
	const maxBatch = 4
	release := make(chan struct{})
	entered := make(chan struct{}, 2)
	rec := newRecorder(0)
	b, err := NewBatcher(Policy{MaxBatch: maxBatch, MaxDelay: time.Hour}, func(batch [][]byte) ([][]uint32, error) {
		entered <- struct{}{}
		<-release
		return rec.handle(batch)
	})
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		req     int
		answers [][]uint32
		err     error
	}
	results := make(chan outcome, 2)
	submit := func(req, n int) {
		answers, err := b.SubmitAll(slotKeys(req, n))
		results <- outcome{req, answers, err}
	}
	go submit(1, maxBatch) // closes its batch and runs it
	<-entered
	go submit(2, maxBatch-1) // stays pending: no deadline for an hour
	waitFor(t, func() bool { a, _ := b.Counts(); return a == 2*maxBatch-1 })

	closed := make(chan struct{})
	go func() { b.Close(); close(closed) }()
	waitFor(t, func() bool { b.mu.Lock(); defer b.mu.Unlock(); return b.closed })
	select {
	case <-closed:
		t.Fatal("Close returned with a batch still in the handler")
	default:
	}
	close(release)
	<-closed
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("request %d, admitted before Close: %v", r.req, r.err)
		}
		checkSlots(t, r.req, r.answers)
	}
	if _, err := b.SubmitAll(slotKeys(3, 1)); err == nil {
		t.Error("SubmitAll after Close succeeded")
	}
	if _, err := b.Submit(slotKey(3, 0)); err == nil {
		t.Error("Submit after Close succeeded")
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before })
}
