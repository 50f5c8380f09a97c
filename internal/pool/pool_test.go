package pool

import (
	"math"
	"sync"
	"testing"

	"feves/internal/device"
)

func wl1080p(rf int) device.Workload {
	return device.Workload{MBW: 120, MBH: 68, SA: 32, NumRF: rf, UsableRF: rf}
}

// assertDisjoint fails unless the active leases cover disjoint non-empty
// subsets of the platform's devices.
func assertDisjoint(t *testing.T, base *device.Platform, leases []*Lease) {
	t.Helper()
	seen := map[int]int{}
	for _, l := range leases {
		devs := l.Devices()
		if len(devs) == 0 {
			t.Fatalf("lease %d has no devices", l.ID())
		}
		for _, d := range devs {
			if d < 0 || d >= base.NumDevices() {
				t.Fatalf("lease %d holds out-of-range device %d", l.ID(), d)
			}
			if prev, dup := seen[d]; dup {
				t.Fatalf("device %d leased to both session %d and %d", d, prev, l.ID())
			}
			seen[d] = l.ID()
		}
	}
}

func TestSingleSessionGetsWholePlatform(t *testing.T) {
	base := device.SysNFF()
	p, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	l, err := p.Acquire(wl1080p(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(l.Devices()); got != base.NumDevices() {
		t.Fatalf("solo session leased %d of %d devices", got, base.NumDevices())
	}
	sub, epoch := l.Snapshot()
	if sub.NumDevices() != base.NumDevices() || epoch != p.Epoch() {
		t.Fatalf("snapshot %d devices at epoch %d (pool epoch %d)",
			sub.NumDevices(), epoch, p.Epoch())
	}
	l.Release()
	if p.Sessions() != 0 {
		t.Fatal("release did not clear the session")
	}
	l.Release() // idempotent
}

func TestArrivalDepartureKeepsLeasesDisjoint(t *testing.T) {
	base := device.SysNFF() // 6 devices
	p, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	var live []*Lease
	for i := 0; i < 6; i++ {
		l, err := p.Acquire(wl1080p(1 + i%3))
		if err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		live = append(live, l)
		assertDisjoint(t, base, live)
	}
	if _, err := p.Acquire(wl1080p(1)); err != ErrExhausted {
		t.Fatalf("7th session on 6 devices: err = %v, want ErrExhausted", err)
	}
	// Departures re-expand the survivors.
	for len(live) > 1 {
		live[0].Release()
		live = live[1:]
		assertDisjoint(t, base, live)
	}
	if got := len(live[0].Devices()); got != base.NumDevices() {
		t.Fatalf("last survivor leased %d of %d devices", got, base.NumDevices())
	}
}

// TestEqualizesPredictedTau: two identical sessions on a platform with
// two identical GPUs and four identical cores should get predicted τtot
// within a few percent of each other — the greedy partitioner's whole point.
func TestEqualizesPredictedTau(t *testing.T) {
	p, err := New(device.SysNFF())
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Acquire(wl1080p(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Acquire(wl1080p(2))
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := a.PredictedTau(), b.PredictedTau()
	if ta <= 0 || tb <= 0 {
		t.Fatalf("predicted taus %v %v", ta, tb)
	}
	if r := math.Abs(ta-tb) / math.Max(ta, tb); r > 0.35 {
		t.Fatalf("predicted τtot imbalance %.0f%% (a=%v b=%v)", 100*r, ta, tb)
	}
	// Each session must hold one GPU: splitting both GPUs to one tenant
	// would leave the other ~an order of magnitude slower.
	gpus := func(l *Lease) int {
		n := 0
		for _, d := range l.Devices() {
			if d < 2 {
				n++
			}
		}
		return n
	}
	if gpus(a) != 1 || gpus(b) != 1 {
		t.Fatalf("GPU split %d/%d, want 1/1", gpus(a), gpus(b))
	}
}

// TestHeavierSessionGetsMoreSpeed: a 4-RF session does ~4× the ME/SME
// work of a 1-RF one; the partitioner should hand it the faster share.
func TestHeavierSessionGetsMoreSpeed(t *testing.T) {
	p, err := New(device.SysNFF())
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := p.Acquire(wl1080p(4))
	if err != nil {
		t.Fatal(err)
	}
	light, err := p.Acquire(wl1080p(1))
	if err != nil {
		t.Fatal(err)
	}
	th, tl := heavy.PredictedTau(), light.PredictedTau()
	// Perfect equalization is impossible with integral devices; demand the
	// heavy session is not starved beyond 3× the light one's τtot.
	if th > 3*tl {
		t.Fatalf("heavy session τ=%v vs light τ=%v: partition ignores demand", th, tl)
	}
}

// TestConcurrentAcquireRelease exercises the pool from many goroutines
// (run with -race) and checks disjointness at every observed epoch.
func TestConcurrentAcquireRelease(t *testing.T) {
	base := device.SysNFF()
	p, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				l, err := p.Acquire(wl1080p(1 + (g+i)%4))
				if err != nil {
					if err == ErrExhausted {
						continue
					}
					t.Error(err)
					return
				}
				sub, _ := l.Snapshot()
				if sub == nil || sub.NumDevices() == 0 || sub.Validate() != nil {
					t.Errorf("bad snapshot for lease %d", l.ID())
				}
				l.Release()
			}
		}(g)
	}
	wg.Wait()
	if p.Sessions() != 0 {
		t.Fatalf("%d sessions leaked", p.Sessions())
	}
}

// TestMarkDownRepartitionsAwayFromLostDevice: losing a device shrinks the
// active leases onto the survivors, keeps them disjoint, and advances the
// epoch; recovery re-expands them.
func TestMarkDownRepartitionsAwayFromLostDevice(t *testing.T) {
	base := device.SysNFF() // 6 devices
	p, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	var leases []*Lease
	for i := 0; i < 3; i++ {
		l, err := p.Acquire(wl1080p(1))
		if err != nil {
			t.Fatal(err)
		}
		leases = append(leases, l)
	}
	before := p.Epoch()
	if !p.MarkDown(0) {
		t.Fatal("MarkDown(0) returned false")
	}
	if p.Epoch() == before {
		t.Fatal("MarkDown did not advance the epoch")
	}
	if got := p.UpDevices(); got != 5 {
		t.Fatalf("UpDevices = %d after one loss, want 5", got)
	}
	assertDisjoint(t, base, leases)
	for _, l := range leases {
		for _, d := range l.Devices() {
			if d == 0 {
				t.Fatalf("lease %d still holds the lost device", l.ID())
			}
		}
	}
	if p.MarkDown(0) {
		t.Fatal("second MarkDown(0) should be a no-op")
	}
	if !p.MarkUp(0) {
		t.Fatal("MarkUp(0) returned false")
	}
	if got := p.UpDevices(); got != 6 {
		t.Fatalf("UpDevices = %d after recovery, want 6", got)
	}
	assertDisjoint(t, base, leases)
}

// TestMarkDownOrphansNewestLease: with every up device leased, losing one
// orphans the newest session (nil snapshot) while older sessions keep
// service; recovery re-serves it.
func TestMarkDownOrphansNewestLease(t *testing.T) {
	base := device.SysNFF()
	p, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	var leases []*Lease
	for i := 0; i < 6; i++ {
		l, err := p.Acquire(wl1080p(1))
		if err != nil {
			t.Fatal(err)
		}
		leases = append(leases, l)
	}
	if !p.MarkDown(3) {
		t.Fatal("MarkDown(3) returned false")
	}
	newest := leases[len(leases)-1]
	if sub, _ := newest.Snapshot(); sub != nil {
		t.Fatalf("newest lease still has platform %q, want orphaned", sub.Name)
	}
	if tau := newest.PredictedTau(); !math.IsInf(tau, 1) {
		t.Fatalf("orphaned lease predicted tau = %v, want +Inf", tau)
	}
	assertDisjoint(t, base, leases[:5])
	if _, err := p.Acquire(wl1080p(1)); err != ErrExhausted {
		t.Fatalf("acquire on a full degraded pool: err = %v, want ErrExhausted", err)
	}
	if !p.MarkUp(3) {
		t.Fatal("MarkUp(3) returned false")
	}
	if sub, _ := newest.Snapshot(); sub == nil {
		t.Fatal("recovery did not re-serve the orphaned lease")
	}
	assertDisjoint(t, base, leases)
}

// TestMarkDownNeverTakesLastDevice: the pool refuses to lose its last up
// device, so it stays serviceable no matter what sessions report.
func TestMarkDownNeverTakesLastDevice(t *testing.T) {
	p, err := New(device.SysNF()) // 5 devices
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 4; d++ {
		if !p.MarkDown(d) {
			t.Fatalf("MarkDown(%d) returned false", d)
		}
	}
	if p.MarkDown(4) {
		t.Fatal("pool gave away its last up device")
	}
	if got := p.UpDevices(); got != 1 {
		t.Fatalf("UpDevices = %d, want 1", got)
	}
	if p.MarkDown(-1) || p.MarkDown(99) {
		t.Fatal("out-of-range MarkDown returned true")
	}
}

// TestConcurrentMarkDownAndLeaseChurn hammers device loss/recovery against
// session arrivals and departures — the race-detector coverage for the
// failover re-partition path.
func TestConcurrentMarkDownAndLeaseChurn(t *testing.T) {
	p, err := New(device.SysNFF())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if l, err := p.Acquire(wl1080p(1)); err == nil {
					l.Snapshot()
					l.PredictedTau()
					l.Release()
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			dev := i % 3
			if p.MarkDown(dev) {
				p.MarkUp(dev)
			}
		}
	}()
	wg.Wait()
	if got := p.UpDevices(); got != 6 {
		t.Fatalf("UpDevices = %d after churn, want 6", got)
	}
}
