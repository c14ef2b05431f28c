package core

// embCache is the client-side embedding cache of §2.3: user features change
// slowly between consecutive inferences, so recently fetched rows are kept
// on device. Eviction is FIFO over insertion order, which is enough for the
// session-locality pattern the paper measures (only 2.44% of lookups are
// new). The cache never changes what the servers observe — the fixed query
// budget is issued regardless — it only reduces which lookups compete for
// that budget.
type embCache struct {
	cap   int
	items map[uint64][]float32
	order []uint64
}

func newEmbCache(capacity int) *embCache {
	return &embCache{cap: capacity, items: map[uint64][]float32{}}
}

func (c *embCache) get(k uint64) ([]float32, bool) {
	if c.cap <= 0 {
		return nil, false
	}
	v, ok := c.items[k]
	return v, ok
}

func (c *embCache) put(k uint64, v []float32) {
	if c.cap <= 0 {
		return
	}
	if _, ok := c.items[k]; ok {
		c.items[k] = v
		return
	}
	for len(c.items) >= c.cap {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.items, oldest)
	}
	c.items[k] = v
	c.order = append(c.order, k)
}

// invalidate drops a key (stale entries in the eviction order are skipped
// harmlessly when they surface).
func (c *embCache) invalidate(k uint64) { delete(c.items, k) }
