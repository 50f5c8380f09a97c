package pool

import (
	"math"
	"math/rand"
	"testing"

	"feves/internal/device"
	"feves/internal/platforms"
)

// heterogeneous returns a fresh instance of every registered platform that
// carries both GPUs and CPU cores — the platforms a pool has something to
// partition on.
func heterogeneous(t *testing.T) []*device.Platform {
	t.Helper()
	var out []*device.Platform
	for _, name := range platforms.Names() {
		pl, err := platforms.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if pl.NumGPUs() > 0 && pl.Cores > 0 {
			out = append(out, pl)
		}
	}
	if len(out) < 4 {
		t.Fatalf("only %d heterogeneous platforms registered", len(out))
	}
	return out
}

// TestPartitionCorpus runs the partitioner over a seeded corpus of
// heterogeneous platforms, 1–6 sessions of realistic geometries, with and
// without one device down, and checks what every lease set must satisfy:
// the sets are disjoint, together cover exactly the up devices, give every
// served session at least one device, and predict a finite positive τ.
func TestPartitionCorpus(t *testing.T) {
	geoms := [][2]int{{11, 9}, {22, 18}, {80, 45}, {120, 68}} // QCIF, CIF, 720p, 1080p
	sas := []int{16, 32, 64}
	pls := heterogeneous(t)
	rng := rand.New(rand.NewSource(1))
	const instances = 2400
	for i := 0; i < instances; i++ {
		base := pls[rng.Intn(len(pls))]
		up := make([]int, 0, base.NumDevices())
		lost := -1
		if i%2 == 1 {
			lost = rng.Intn(base.NumDevices())
		}
		for d := 0; d < base.NumDevices(); d++ {
			if d != lost {
				up = append(up, d)
			}
		}
		ds := make([]demand, 1+rng.Intn(min(6, len(up))))
		for s := range ds {
			g := geoms[rng.Intn(len(geoms))]
			rf := 1 + rng.Intn(4)
			ds[s] = demand{id: s, w: device.Workload{MBW: g[0], MBH: g[1],
				SA: sas[rng.Intn(len(sas))], NumRF: rf, UsableRF: 1 + rng.Intn(rf)}}
		}
		sets, taus := partitionDevices(base, ds, up)
		if len(sets) != len(ds) || len(taus) != len(ds) {
			t.Fatalf("instance %d: %d sets, %d taus for %d sessions", i, len(sets), len(taus), len(ds))
		}
		owner := map[int]int{}
		for s, set := range sets {
			if len(set) == 0 {
				t.Fatalf("instance %d (%s, up %v, %d sessions): session %d got no device",
					i, base.Name, up, len(ds), s)
			}
			if tau := taus[s]; !(tau > 0) || math.IsInf(tau, 1) {
				t.Fatalf("instance %d: session %d predicted τ %v", i, s, tau)
			}
			for _, d := range set {
				if d == lost || d < 0 || d >= base.NumDevices() {
					t.Fatalf("instance %d: session %d holds device %d (lost %d)", i, s, d, lost)
				}
				if prev, dup := owner[d]; dup {
					t.Fatalf("instance %d: device %d leased to sessions %d and %d", i, d, prev, s)
				}
				owner[d] = s
			}
		}
		if len(owner) != len(up) {
			t.Fatalf("instance %d (%s): leases cover %d of %d up devices", i, base.Name, len(owner), len(up))
		}
	}
}

// TestServeJobsShapesSplitGPUs pins the lease property the serve_jobs
// wall clock depends on: whenever two of its job shapes (1080p SA 32 with
// 1 or 2 references, 176×144 SA 16 with 1) share SysNFK, in either arrival
// order, each holds one GPU. A 1080p simulate session given both GPUs next
// to a small encode runs about twice as slow as on GPU_K and four cores.
func TestServeJobsShapesSplitGPUs(t *testing.T) {
	shapes := []device.Workload{
		wl1080p(1), wl1080p(2),
		{MBW: 11, MBH: 9, SA: 16, NumRF: 1, UsableRF: 1},
	}
	for _, a := range shapes {
		for _, b := range shapes {
			base, err := platforms.Lookup("sysnfk")
			if err != nil {
				t.Fatal(err)
			}
			p, err := New(base)
			if err != nil {
				t.Fatal(err)
			}
			la, err := p.Acquire(a)
			if err != nil {
				t.Fatal(err)
			}
			if got := len(la.Devices()); got != base.NumDevices() {
				t.Fatalf("solo %+v leased %d of %d devices", a, got, base.NumDevices())
			}
			lb, err := p.Acquire(b)
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range []*Lease{la, lb} {
				gpus := 0
				for _, d := range l.Devices() {
					if base.IsGPU(d) {
						gpus++
					}
				}
				if gpus != 1 {
					t.Errorf("%+v then %+v: lease %d holds %v (%d GPUs), want one GPU each",
						a, b, l.ID(), l.Devices(), gpus)
				}
			}
		}
	}
}
