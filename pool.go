package feves

import (
	"fmt"

	"feves/internal/core"
	"feves/internal/pool"
	"feves/internal/session"
	"feves/internal/vcm"
)

// Pool shares one platform among several concurrent encode or simulation
// sessions. Every session leases a disjoint, non-empty subset of the
// devices; on each arrival or departure the pool re-partitions the
// platform with a greedy partitioner that balances the sessions' predicted
// frame times, and running sessions pick up their new lease at the next
// frame boundary. Functional encoding stays bit-exact through every
// re-partition — output never depends on which devices a session held.
type Pool struct {
	p *pool.Pool
}

// NewPool creates a pool over the platform's devices.
func NewPool(pl *Platform) (*Pool, error) {
	p, err := pool.New(pl.inner)
	if err != nil {
		return nil, err
	}
	return &Pool{p: p}, nil
}

// Capacity returns the device count — the maximum number of concurrent
// sessions (each lease must hold at least one device).
func (p *Pool) Capacity() int { return p.p.Capacity() }

// Sessions returns the number of live sessions.
func (p *Pool) Sessions() int { return p.p.Sessions() }

// Session is one tenant of a Pool: a session driver bound to the session's
// device lease, stepped like a Simulation or fed like an Encoder according
// to how it joined (the other kind of call is an error, as is any call
// after Close). A Session is not safe for concurrent use; run each session
// on its own goroutine.
type Session struct {
	encoding
	simulating
	lease *pool.Lease
}

// NewSimulationSession joins the pool with a timing-only session.
func (p *Pool) NewSimulationSession(cfg Config) (*Session, error) {
	return p.newSession(cfg, vcm.TimingOnly)
}

// NewEncoderSession joins the pool with a functional encoding session.
func (p *Pool) NewEncoderSession(cfg Config) (*Session, error) {
	return p.newSession(cfg, vcm.Functional)
}

func (p *Pool) newSession(cfg Config, mode vcm.Mode) (*Session, error) {
	opts, err := cfg.options(mode)
	if err != nil {
		return nil, err
	}
	lease, err := p.p.Acquire(core.Workload(opts.Codec))
	if err != nil {
		return nil, err
	}
	if cfg.SessionLabel == "" {
		// Every tenant gets its own telemetry scope: the session label rides
		// on each event, metric sample and trace slice, and the Perfetto
		// timeline grows one process lane per tenant.
		opts.Telemetry = cfg.Observer.Sink().ForSession(fmt.Sprintf("session-%d", lease.ID()))
	}
	drv, err := session.New(opts, lease, session.Hooks{})
	if err != nil {
		lease.Release()
		return nil, err
	}
	return &Session{encoding{drv}, simulating{drv}, lease}, nil
}

// Devices names the devices of the session's current lease (in the
// lease's scheduling order, GPUs first).
func (s *Session) Devices() []string {
	sub, _ := s.lease.Snapshot()
	return sub.DeviceNames()
}

// Repartitions returns how many lease changes the session has absorbed
// at frame boundaries.
func (s *Session) Repartitions() int { return s.encoding.drv.Repartitions() }

// Close releases the session's lease back to the pool, re-partitioning
// the freed devices among the remaining sessions. Idempotent.
func (s *Session) Close() {
	s.encoding.drv.Close()
	s.lease.Release()
}
