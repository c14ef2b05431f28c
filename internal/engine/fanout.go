package engine

import (
	"context"
	"slices"
	"sync"
)

// fanout is one answer pass's state, pooled per Cluster so a pass
// allocates nothing of its own: the pass's context, each shard's result,
// and the balancer's per-member bookkeeping of every group, flattened.
type fanout struct {
	c    *Cluster
	keys [][]byte
	ctx  fanCtx
	next int // a chained pass's next shard to start

	results    []shardAnswer
	errs       []error
	tried      []bool  // by member, groups back to back (Cluster.memberAt)
	memberErrs []error // likewise
	wg         sync.WaitGroup
	run        []func() // run[i] serves shard i; made once, so a go statement allocates nothing
}

func (c *Cluster) newFanout() *fanout {
	members := c.memberAt[len(c.groups)]
	f := &fanout{
		c:          c,
		results:    make([]shardAnswer, len(c.groups)),
		errs:       make([]error, len(c.groups)),
		tried:      make([]bool, members),
		memberErrs: make([]error, members),
		run:        make([]func(), len(c.groups)),
	}
	f.ctx.onEnd = func() { f.ctx.cancel(context.Cause(f.ctx.Context)) }
	if c.chained {
		f.ctx.sent = f.startNext
	}
	for i := range f.run {
		f.run[i] = func() {
			defer f.wg.Done()
			f.shard(i)
		}
	}
	return f
}

// getFanout takes a pooled pass for keys under ctx.
func (c *Cluster) getFanout(ctx context.Context, keys [][]byte) *fanout {
	f, _ := c.fanouts.Get().(*fanout)
	if f == nil {
		f = c.newFanout()
	}
	f.keys = keys
	f.ctx.start(ctx)
	return f
}

// putFanout ends the pass and pools it, unless its context is still in
// someone's hands.
func (c *Cluster) putFanout(f *fanout) {
	reusable := f.ctx.end()
	f.keys, f.next = nil, 0
	clear(f.results)
	clear(f.errs)
	clear(f.tried)
	clear(f.memberErrs)
	if reusable {
		c.fanouts.Put(f)
	}
}

// shard serves shard i's sub-batch; a shard that fails for good ends the
// pass's context, which cuts its siblings' RPCs short.
func (f *fanout) shard(i int) {
	lo, hi := f.c.memberAt[i], f.c.memberAt[i+1]
	ans, err := f.c.groupAnswer(&f.ctx, i, f.keys, f.tried[lo:hi], f.memberErrs[lo:hi])
	if err != nil {
		f.errs[i] = err
		f.ctx.cancel(context.Canceled) // stop paying for partials the batch can no longer use
		return
	}
	f.results[i] = ans
}

// startNext serves the first shard of a chained pass not yet started, on
// the calling goroutine: it is the pass's send hook, so each shard's
// request, once written, starts the next shard's, and the replies are read
// in reverse order. Later calls (a failover member's send) start nothing
// once every shard has started.
func (f *fanout) startNext() {
	if i := f.next; i < len(f.results) {
		f.next++
		f.shard(i)
	}
}

// fanCtx is a pass's context: the caller's values and deadline, ended by
// the caller's context or by the first shard that fails for good. Its
// AfterFunc, with which shardnet.Client cuts a connection short, keeps
// registrations in reused slots and runs them on the ending goroutine,
// so an RPC under it allocates nothing; each returned stop may be called
// at most once. Its RequestSent is the send hook a Pipeliner member calls.
type fanCtx struct {
	context.Context // the caller's

	sent func() // a chained pass's send hook; nil: none

	mu     sync.Mutex
	err    error
	done   chan struct{} // made by the first Done
	fns    []func()      // by slot; nil: free
	stops  []func() bool // slot i's stop
	onEnd  func()        // the caller's context's AfterFunc
	unhook func() bool   // stops onEnd; nil when the caller's context cannot end
}

// start begins a pass under parent.
func (c *fanCtx) start(parent context.Context) {
	c.Context = parent
	if parent.Done() != nil {
		c.unhook = context.AfterFunc(parent, c.onEnd)
	}
}

// end finishes the pass and reports whether the context can serve
// another. One whose Done channel or AfterFunc someone still holds, or
// that the caller's context is ending right now, is cancelled instead, as
// a pass's context always was at its end.
func (c *fanCtx) end() bool {
	hooked := c.unhook == nil || c.unhook()
	c.unhook = nil
	c.mu.Lock()
	clean := hooked && c.done == nil && !slices.ContainsFunc(c.fns, func(f func()) bool { return f != nil })
	c.mu.Unlock()
	if !clean {
		c.cancel(context.Canceled)
		return false
	}
	c.err, c.Context = nil, context.Background()
	return true
}

func (c *fanCtx) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done == nil {
		c.done = make(chan struct{})
		if c.err != nil {
			close(c.done)
		}
	}
	return c.done
}

func (c *fanCtx) Err() error {
	c.mu.Lock()
	err := c.err
	c.mu.Unlock()
	if err == nil {
		// The caller's context may have ended before onEnd has run.
		if err = c.Context.Err(); err != nil {
			c.cancel(err)
		}
	}
	return err
}

// RequestSent runs the pass's send hook, if it has one: a Pipeliner member
// calls it once its request is written and before it reads the reply.
func (c *fanCtx) RequestSent() {
	if c.sent != nil {
		c.sent()
	}
}

// cancel ends the context with err and runs every registered function.
func (c *fanCtx) cancel(err error) {
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return
	}
	c.err = err
	if c.done != nil {
		close(c.done)
	}
	var buf [4]func()
	fns := buf[:0]
	for i, f := range c.fns {
		if f != nil {
			fns = append(fns, f)
			c.fns[i] = nil
		}
	}
	c.mu.Unlock()
	for _, f := range fns {
		f()
	}
}

// AfterFunc registers f to run when the context ends, at once (on its own
// goroutine, as context.AfterFunc does) if it already has.
func (c *fanCtx) AfterFunc(f func()) (stop func() bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		go f()
		return func() bool { return false }
	}
	for i, g := range c.fns {
		if g == nil {
			c.fns[i] = f
			return c.stops[i]
		}
	}
	i := len(c.fns)
	c.fns = append(c.fns, f)
	c.stops = append(c.stops, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		registered := c.fns[i] != nil
		c.fns[i] = nil
		return registered
	})
	return c.stops[i]
}
