package device

import (
	"fmt"
	"sort"
)

// Platform describes a heterogeneous system: an ordered device list with
// GPUs first (device p_1 … p_nw) followed by CPU cores (p_{nw+1} …
// p_{nw+nc}), matching the paper's indexing, plus the deterministic noise
// seed and an optional perturbation schedule that models non-dedicated
// system load (Fig. 7).
type Platform struct {
	Name string
	GPUs []Profile
	// CPUCore is the per-core profile; Cores is n_c.
	CPUCore Profile
	Cores   int

	// Seed drives the deterministic kernel-time jitter.
	Seed uint64
	// Perturb, when non-nil, returns an extra multiplier (≥ 0) on the
	// kernel times of device devIndex while encoding inter-frame `frame`
	// (1-based). A factor of 2 halves the device's speed for that frame —
	// the "other processes started running" events of Fig. 7.
	Perturb func(frame, devIndex int) float64

	// Faults, when non-nil, is the deterministic fault-injection schedule
	// (stalls, slowdowns, deaths). Like Perturb it multiplies kernel
	// times and is evaluated under the parent device index, so a fault on
	// physical device k follows the silicon through any lease.
	Faults *FaultPlan

	// BaseIndex, when non-nil, maps this platform's device indices to the
	// indices of the parent platform it was leased from (see Subplatform).
	// Jitter and perturbation are evaluated under the parent index, so a
	// leased device keeps its physical identity: host-level load events on
	// the parent hit the same silicon regardless of which tenant holds it.
	BaseIndex []int
}

// Validate checks the platform description.
func (pl *Platform) Validate() error {
	if len(pl.GPUs) == 0 && pl.Cores == 0 {
		return fmt.Errorf("device: platform %q has no devices", pl.Name)
	}
	for _, g := range pl.GPUs {
		if g.Class != GPU {
			return fmt.Errorf("device: %q listed as GPU but has class %v", g.Name, g.Class)
		}
		if err := g.Validate(); err != nil {
			return err
		}
	}
	if pl.Cores < 0 || pl.Cores > 64 {
		return fmt.Errorf("device: core count %d out of range", pl.Cores)
	}
	if pl.Cores > 0 {
		if pl.CPUCore.Class != CPU {
			return fmt.Errorf("device: CPU core profile has class %v", pl.CPUCore.Class)
		}
		if err := pl.CPUCore.Validate(); err != nil {
			return err
		}
	}
	if pl.BaseIndex != nil && len(pl.BaseIndex) != pl.NumDevices() {
		return fmt.Errorf("device: platform %q maps %d of %d devices",
			pl.Name, len(pl.BaseIndex), pl.NumDevices())
	}
	return nil
}

// NumGPUs returns n_w.
func (pl *Platform) NumGPUs() int { return len(pl.GPUs) }

// NumDevices returns n_w + n_c.
func (pl *Platform) NumDevices() int { return len(pl.GPUs) + pl.Cores }

// Dev returns the profile of device i (0-based; GPUs first, then cores).
func (pl *Platform) Dev(i int) Profile {
	if i < len(pl.GPUs) {
		return pl.GPUs[i]
	}
	return pl.CPUCore
}

// DeviceNames lists the device names in scheduling order (GPUs first);
// none for the nil platform of an orphaned lease.
func (pl *Platform) DeviceNames() []string {
	if pl == nil {
		return nil
	}
	out := make([]string, pl.NumDevices())
	for i := range out {
		out[i] = pl.Dev(i).Name
	}
	return out
}

// IsGPU reports whether device i is an accelerator.
func (pl *Platform) IsGPU(i int) bool { return i < len(pl.GPUs) }

// EffectiveFactor combines jitter and perturbation for device i's kernels
// while encoding the given inter-frame. Module indexes: 0 ME, 1 INT,
// 2 SME, 3 R*. On a leased subplatform both are evaluated under the
// parent's device index.
func (pl *Platform) EffectiveFactor(frame, devIndex, module int) float64 {
	base := devIndex
	if pl.BaseIndex != nil {
		base = pl.BaseIndex[devIndex]
	}
	f := pl.Dev(devIndex).JitterFactor(pl.Seed, frame, base, module)
	if pl.Perturb != nil {
		if m := pl.Perturb(frame, base); m > 0 {
			f *= m
		}
	}
	if pl.Faults != nil {
		f *= pl.Faults.Factor(frame, base)
	}
	return f
}

// Subplatform carves the named subset of this platform's devices (parent
// indices, GPUs first then cores, matching Dev's numbering) into a new
// Platform that a framework can run standalone — the lease unit of the
// multi-tenant device pool. The subset must be non-empty, in range and
// duplicate-free. The child inherits the seed and perturbation schedule
// and records the index mapping in BaseIndex, so the leased devices
// behave exactly as they would inside the parent.
func (pl *Platform) Subplatform(name string, devices []int) (*Platform, error) {
	if len(devices) == 0 {
		return nil, fmt.Errorf("device: subplatform %q needs at least one device", name)
	}
	sub := &Platform{Name: name, Seed: pl.Seed, Perturb: pl.Perturb, Faults: pl.Faults}
	var gpus, cores []int
	seen := make(map[int]bool, len(devices))
	for _, d := range devices {
		if d < 0 || d >= pl.NumDevices() {
			return nil, fmt.Errorf("device: subplatform %q: device %d out of range [0,%d)",
				name, d, pl.NumDevices())
		}
		if seen[d] {
			return nil, fmt.Errorf("device: subplatform %q: device %d listed twice", name, d)
		}
		seen[d] = true
		if pl.IsGPU(d) {
			gpus = append(gpus, d)
		} else {
			cores = append(cores, d)
		}
	}
	sort.Ints(gpus)
	sort.Ints(cores)
	for _, d := range gpus {
		sub.GPUs = append(sub.GPUs, pl.GPUs[d])
	}
	sub.BaseIndex = append(append([]int{}, gpus...), cores...)
	if len(cores) > 0 {
		sub.CPUCore = pl.CPUCore
		sub.Cores = len(cores)
	}
	if err := sub.Validate(); err != nil {
		return nil, err
	}
	return sub, nil
}

// The paper's three heterogeneous test systems and the four single-device
// baselines of Fig. 6.

// SysNF is CPU_N (4 cores) + one GPU_F.
func SysNF() *Platform {
	return &Platform{Name: "SysNF", GPUs: []Profile{GPUFermi()}, CPUCore: CPUNehalemCore(), Cores: 4, Seed: 1}
}

// SysNFF is CPU_N (4 cores) + two GPU_F devices.
func SysNFF() *Platform {
	return &Platform{Name: "SysNFF", GPUs: []Profile{GPUFermi(), GPUFermi()}, CPUCore: CPUNehalemCore(), Cores: 4, Seed: 1}
}

// SysHK is CPU_H (4 cores) + one GPU_K.
func SysHK() *Platform {
	return &Platform{Name: "SysHK", GPUs: []Profile{GPUKepler()}, CPUCore: CPUHaswellCore(), Cores: 4, Seed: 1}
}

// Uncalibrated returns a copy of the platform with every device profile's
// kernel calibration undone (Profile.Uncalibrated applied with c) — the
// platform as the paper's hardware would run it with the original scalar
// kernels. Scheduling state (seed, perturbation, faults, lease mapping)
// carries over unchanged.
func (pl *Platform) Uncalibrated(c KernelCalibration) *Platform {
	out := *pl
	out.GPUs = make([]Profile, len(pl.GPUs))
	for i, g := range pl.GPUs {
		out.GPUs[i] = g.Uncalibrated(c)
	}
	if out.Cores > 0 {
		out.CPUCore = pl.CPUCore.Uncalibrated(c)
	}
	return &out
}

// CPUOnly builds a homogeneous multi-core platform (the paper's CPU_N and
// CPU_H baselines with 4 cores).
func CPUOnly(name string, core Profile, cores int) *Platform {
	return &Platform{Name: name, CPUCore: core, Cores: cores, Seed: 1}
}

// GPUOnly builds a single-accelerator platform (the GPU_F / GPU_K
// baselines; the CPU orchestrates but does not compute).
func GPUOnly(name string, gpu Profile) *Platform {
	return &Platform{Name: name, GPUs: []Profile{gpu}, Seed: 1}
}
