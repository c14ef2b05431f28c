package pir

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"

	"gpudpf/internal/engine"
	"gpudpf/internal/serving"
	"gpudpf/internal/shardnet"
)

// Answerer is anything that can answer a marshaled key batch: a Server, an
// engine backend adapter, or a serving.Batcher front door.
type Answerer = shardnet.Answerer

// Endpoint is one PIR server as seen by a client: in-process for
// simulation, or remote over TCP for a real two-cloud deployment.
type Endpoint interface {
	Answerer
	// Close releases the endpoint.
	Close() error
}

// InProcess wraps any Answerer (typically a *Server) as an Endpoint
// without a network.
type InProcess struct{ Server Answerer }

// Answer implements Endpoint.
func (e InProcess) Answer(keys [][]byte) ([][]uint32, error) { return e.Server.Answer(keys) }

// Close implements Endpoint.
func (e InProcess) Close() error { return nil }

// Serve runs a blocking accept loop answering PIR requests on l until the
// listener closes. s may be a *Server or any other request path (e.g. a
// batching front door over an engine replica); the keys it is handed alias
// the connection's read buffer and must not be kept past its return. A
// pinning client's hello is answered from s's configuration when s is a
// *Server, a shardnet.Describer, or a BackendEndpoint over one, and refused
// otherwise.
func Serve(l net.Listener, s Answerer) error {
	return shardnet.NewFront(s, describerOf(s), shardnet.ServerConfig{}).Serve(l)
}

func describerOf(s Answerer) shardnet.Describer {
	switch s := s.(type) {
	case *Server:
		return s.eng
	case BackendEndpoint:
		s2, _ := s.Backend.(shardnet.Describer)
		return s2
	}
	d, _ := s.(shardnet.Describer)
	return d
}

// Remote is a TCP Endpoint, the client-op face of shardnet's pooled
// client. It is safe for concurrent use.
type Remote struct{ c *shardnet.Client }

// Dial connects to a PIR server started with Serve. With pin the server's
// hello must match it — PRF and its construction, early-termination depth,
// party, rows — or Dial fails naming both values; without, no hello is
// sent.
func Dial(addr string, pin ...shardnet.Options) (*Remote, error) {
	if len(pin) > 1 {
		return nil, fmt.Errorf("pir: dial %s: %d pins, want at most one", addr, len(pin))
	}
	var p *shardnet.Options
	if len(pin) == 1 {
		p = &pin[0]
	}
	c, err := shardnet.DialClient(addr, p)
	if err != nil {
		return nil, err
	}
	return &Remote{c: c}, nil
}

// Answer implements Endpoint. A shed request fails with
// serving.ErrOverloaded (errors.Is works across the network).
func (r *Remote) Answer(keys [][]byte) ([][]uint32, error) {
	return r.c.Answer(context.Background(), keys)
}

// UpdateBatch installs a batch of row writes on the server as one atomic
// table epoch and returns the epoch it installed.
func (r *Remote) UpdateBatch(writes []engine.RowWrite) (uint64, error) {
	return r.c.UpdateBatch(context.Background(), writes)
}

// Stats fetches the server's serving stats (admission outcomes and
// epoch-retry counts) — what the load harness reconciles its own shed and
// retry observations against.
func (r *Remote) Stats() (serving.Stats, error) { return r.c.Stats(context.Background()) }

// Close implements Endpoint.
func (r *Remote) Close() error { return r.c.Close() }

// CommStats records the exact application-layer bytes a fetch moved.
type CommStats struct {
	// UpBytes is the client→servers key traffic (both servers).
	UpBytes int64
	// DownBytes is the servers→client share traffic (both servers).
	DownBytes int64
}

// Total is the full communication cost of the exchange.
func (c CommStats) Total() int64 { return c.UpBytes + c.DownBytes }

// TwoServer drives the complete protocol of Figure 2 against a pair of
// non-colluding endpoints.
type TwoServer struct {
	// Client generates keys and reconstructs rows.
	Client *Client
	// E0 and E1 are the party-0 and party-1 servers.
	E0, E1 Endpoint
}

// Fetch privately retrieves the given rows. Both servers are queried
// concurrently, mirroring the deployment where they are different clouds.
func (ts *TwoServer) Fetch(indices []uint64) ([][]uint32, CommStats, error) {
	var stats CommStats
	if len(indices) == 0 {
		return nil, stats, errors.New("pir: no indices to fetch")
	}
	keys0, keys1, err := ts.Client.QueryBatch(indices)
	if err != nil {
		return nil, stats, err
	}
	for q := range keys0 {
		stats.UpBytes += int64(len(keys0[q]) + len(keys1[q]))
	}

	type result struct {
		answers [][]uint32
		err     error
	}
	ch := make(chan result, 1)
	go func() {
		a, err := ts.E0.Answer(keys0)
		ch <- result{a, err}
	}()
	a1, err1 := ts.E1.Answer(keys1)
	r0 := <-ch
	if r0.err != nil {
		return nil, stats, fmt.Errorf("pir: server 0: %w", r0.err)
	}
	if err1 != nil {
		return nil, stats, fmt.Errorf("pir: server 1: %w", err1)
	}
	if len(r0.answers) != len(indices) || len(a1) != len(indices) {
		return nil, stats, fmt.Errorf("pir: servers returned %d/%d answers for %d queries",
			len(r0.answers), len(a1), len(indices))
	}
	rows := make([][]uint32, len(indices))
	for q := range indices {
		stats.DownBytes += int64(len(r0.answers[q])+len(a1[q])) * 4
		rows[q], err = Reconstruct(r0.answers[q], a1[q])
		if err != nil {
			return nil, stats, err
		}
	}
	return rows, stats, nil
}

// BackendEndpoint adapts any engine.Backend — typically an engine.Cluster
// whose shards live on other machines — as a local Endpoint, so TwoServer
// can drive the two-server protocol with each "server" being a whole
// distributed replica.
type BackendEndpoint struct {
	Backend engine.Backend
}

// Answer implements Endpoint.
func (e BackendEndpoint) Answer(keys [][]byte) ([][]uint32, error) {
	return e.Backend.Answer(context.Background(), keys)
}

// UpdateBatch lets a backend served without a front door take the wire
// update op.
func (e BackendEndpoint) UpdateBatch(writes []engine.RowWrite) (uint64, error) {
	return e.Backend.UpdateBatch(context.Background(), writes)
}

// Close implements Endpoint, closing the backend when it is closeable
// (engine.Cluster closes its remote shard clients).
func (e BackendEndpoint) Close() error {
	if closer, ok := e.Backend.(io.Closer); ok {
		return closer.Close()
	}
	return nil
}

var _ Endpoint = InProcess{}
var _ Endpoint = (*Remote)(nil)
var _ Endpoint = BackendEndpoint{}
