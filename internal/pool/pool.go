// Package pool is the multi-tenant device-pool manager of the FEVES
// serving subsystem: it leases disjoint, non-empty device subsets of one
// physical platform to concurrent encode sessions and re-partitions the
// pool on every session arrival and departure, balancing the predicted
// per-session τtot with the greedy partitioner of partition.go (the
// per-frame Algorithm 2 LP inside each session does the fine balancing).
//
// A session holds a Lease. The lease's Snapshot returns a standalone
// device.Platform carved out of the pool (device.Subplatform), plus an
// epoch counter; when another session arrives or departs the pool
// re-partitions, the epoch advances, and the session is expected to
// re-target its framework onto the new subset at the next frame boundary
// (core.Framework.SetPlatform). Leased subsets are disjoint at every
// epoch, so tenants never contend for a device.
package pool

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"feves/internal/device"
)

// ErrExhausted is returned by Acquire when every device is already leased
// to a session; disjoint non-empty leases cap the session count at the
// device count. Callers queue and retry after a Release.
var ErrExhausted = errors.New("pool: all devices leased")

// Pool manages leases over one platform's devices.
type Pool struct {
	mu     sync.Mutex
	base   *device.Platform
	down   []bool // base-index devices lost to faults (MarkDown)
	leases map[int]*Lease
	nextID int
	epoch  uint64
}

// New creates a pool over the platform. The pool owns the platform's
// partitioning; callers must not run frameworks on base directly while
// the pool is in use.
func New(base *device.Platform) (*Pool, error) {
	if base == nil {
		return nil, fmt.Errorf("pool: no platform given")
	}
	if err := base.Validate(); err != nil {
		return nil, err
	}
	return &Pool{base: base, down: make([]bool, base.NumDevices()), leases: map[int]*Lease{}}, nil
}

// Capacity returns the maximum number of concurrent leases over the full
// physical platform (the device count). Devices currently marked down
// reduce the admittable session count below this — see UpDevices.
func (p *Pool) Capacity() int { return p.base.NumDevices() }

// UpDevices returns the number of devices currently available for
// leasing (not marked down).
func (p *Pool) UpDevices() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.upLocked())
}

// Down returns a copy of the per-device down mask (base platform
// indices).
func (p *Pool) Down() []bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]bool(nil), p.down...)
}

// upLocked lists the base indices of devices not marked down. Called
// with p.mu held.
func (p *Pool) upLocked() []int {
	up := make([]int, 0, len(p.down))
	for d, isDown := range p.down {
		if !isDown {
			up = append(up, d)
		}
	}
	return up
}

// MarkDown removes a base-platform device from the leasable set — the
// failover hook sessions call when their framework excluded the device —
// and re-partitions the remaining devices across the active leases.
// Sessions pick the shrunk subsets up at their next frame boundary. The
// last up device is never taken away (the pool stays serviceable), and
// marking an unknown or already-down device is a no-op; both return
// false.
func (p *Pool) MarkDown(dev int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if dev < 0 || dev >= len(p.down) || p.down[dev] {
		return false
	}
	if len(p.upLocked()) <= 1 {
		return false
	}
	p.down[dev] = true
	p.repartition()
	return true
}

// MarkUp returns a previously lost device to the leasable set and
// re-partitions, growing the active leases (and re-serving any orphaned
// ones) at the next frame boundary. Returns false if the device is
// unknown or already up.
func (p *Pool) MarkUp(dev int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if dev < 0 || dev >= len(p.down) || !p.down[dev] {
		return false
	}
	p.down[dev] = false
	p.repartition()
	return true
}

// Rate returns the pool's aggregate calibrated row rate for workload w
// over the devices currently up: rows per second if the whole node worked
// the stream jointly. This is the per-node capacity figure the fleet
// router's third-level LP balances session placement against.
func (p *Pool) Rate(w device.Workload) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var sum float64
	for _, d := range p.upLocked() {
		sum += rowRate(p.base.Dev(d), w)
	}
	return sum
}

// Sessions returns the number of active leases.
func (p *Pool) Sessions() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.leases)
}

// Epoch returns the current partition epoch; it advances on every
// arrival and departure.
func (p *Pool) Epoch() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.epoch
}

// DeviceState describes one base-platform device for introspection.
type DeviceState struct {
	Index int    `json:"index"`
	Name  string `json:"name"`
	Down  bool   `json:"down"`
	// Lease is the id of the lease currently holding the device, or -1.
	Lease int `json:"lease"`
}

// LeaseState describes one active lease for introspection.
type LeaseState struct {
	ID      int    `json:"id"`
	Devices []int  `json:"devices"`
	Epoch   uint64 `json:"epoch"`
	// PredTau is the partitioner's equalized τtot estimate; +Inf (rendered
	// as orphaned=true) when device loss left the lease without devices.
	PredTau  float64 `json:"pred_tau,omitempty"`
	Orphaned bool    `json:"orphaned,omitempty"`
}

// State describes the pool's live topology — the /debug/state document's
// pool section.
type State struct {
	Epoch    uint64        `json:"epoch"`
	Capacity int           `json:"capacity"`
	Up       int           `json:"up"`
	Devices  []DeviceState `json:"devices"`
	Leases   []LeaseState  `json:"leases"`
}

// State snapshots the pool topology: every base device with its down flag
// and holding lease, and every active lease with its devices, epoch and
// predicted τ. Safe for concurrent use.
func (p *Pool) State() State {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := State{
		Epoch:    p.epoch,
		Capacity: p.base.NumDevices(),
		Up:       len(p.upLocked()),
		Devices:  make([]DeviceState, p.base.NumDevices()),
	}
	holder := make(map[int]int, p.base.NumDevices())
	ids := make([]int, 0, len(p.leases))
	for id := range p.leases {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		l := p.leases[id]
		for _, d := range l.devices {
			holder[d] = id
		}
		ls := LeaseState{ID: id, Devices: append([]int(nil), l.devices...), Epoch: l.epoch}
		if math.IsInf(l.predTau, 1) {
			ls.Orphaned = true
		} else {
			ls.PredTau = l.predTau
		}
		s.Leases = append(s.Leases, ls)
	}
	for i := range s.Devices {
		lease := -1
		if id, ok := holder[i]; ok {
			lease = id
		}
		s.Devices[i] = DeviceState{
			Index: i, Name: p.base.Dev(i).Name, Down: p.down[i], Lease: lease,
		}
	}
	return s
}

// Lease is one session's claim on a disjoint device subset.
type Lease struct {
	pool *Pool
	id   int
	w    device.Workload

	// Guarded by pool.mu.
	devices  []int
	sub      *device.Platform
	epoch    uint64
	predTau  float64
	released bool
}

// Acquire admits a session with the given standing workload (frame
// geometry, search area, reference count — the weight the partitioner
// equalizes with) and re-partitions the pool. It fails with ErrExhausted
// when the pool already runs one session per device.
func (p *Pool) Acquire(w device.Workload) (*Lease, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.leases) >= len(p.upLocked()) {
		return nil, ErrExhausted
	}
	l := &Lease{pool: p, id: p.nextID, w: w}
	p.nextID++
	p.leases[l.id] = l
	p.repartition()
	return l, nil
}

// repartition rebalances the up devices across the active leases and
// advances the epoch. Called with p.mu held; the partitioner guarantees
// disjoint non-empty subsets whenever served sessions ≤ up devices, so
// Subplatform cannot fail here. Device loss can leave fewer up devices
// than sessions; then the oldest sessions keep service and the newest
// are orphaned — nil snapshot, infinite predicted τ — until a device
// recovers or a lease departs.
func (p *Pool) repartition() {
	p.epoch++
	if len(p.leases) == 0 {
		return
	}
	up := p.upLocked()
	ids := make([]int, 0, len(p.leases))
	for id := range p.leases {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	served := ids
	if len(served) > len(up) {
		served = ids[:len(up)]
	}
	ds := make([]demand, len(served))
	for i, id := range served {
		ds[i] = demand{id: id, w: p.leases[id].w}
	}
	sets, taus := partitionDevices(p.base, ds, up)
	for i, id := range served {
		l := p.leases[id]
		sub, err := p.base.Subplatform(fmt.Sprintf("%s/lease%d", p.base.Name, id), sets[i])
		if err != nil {
			panic(fmt.Sprintf("pool: invariant broken: %v", err))
		}
		l.devices = sets[i]
		l.sub = sub
		l.epoch = p.epoch
		l.predTau = taus[i]
	}
	for _, id := range ids[len(served):] {
		l := p.leases[id]
		l.devices = nil
		l.sub = nil
		l.epoch = p.epoch
		l.predTau = math.Inf(1)
	}
}

// ID returns the lease's session identifier (unique within the pool).
func (l *Lease) ID() int { return l.id }

// Pool returns the pool the lease belongs to — where a session reports the
// devices it lost (MarkDown).
func (l *Lease) Pool() *Pool { return l.pool }

// Devices returns the currently leased device indices of the parent
// platform, sorted ascending.
func (l *Lease) Devices() []int {
	l.pool.mu.Lock()
	defer l.pool.mu.Unlock()
	return append([]int(nil), l.devices...)
}

// Snapshot returns the leased subset as a standalone platform together
// with the partition epoch it belongs to. Sessions compare the epoch at
// each frame boundary and re-target their framework when it advanced. A
// nil platform means the lease is orphaned: device loss left fewer up
// devices than sessions and this session drew the short straw until a
// device recovers or another lease departs.
func (l *Lease) Snapshot() (*device.Platform, uint64) {
	l.pool.mu.Lock()
	defer l.pool.mu.Unlock()
	return l.sub, l.epoch
}

// PredictedTau returns the pool partitioner's τtot estimate for this
// session under the current lease — the quantity the greedy partitioner
// balances across tenants.
func (l *Lease) PredictedTau() float64 {
	l.pool.mu.Lock()
	defer l.pool.mu.Unlock()
	return l.predTau
}

// Release returns the devices to the pool and re-partitions the remaining
// sessions. It is idempotent.
func (l *Lease) Release() {
	l.pool.mu.Lock()
	defer l.pool.mu.Unlock()
	if l.released {
		return
	}
	l.released = true
	delete(l.pool.leases, l.id)
	l.pool.repartition()
}
