// Package device models the heterogeneous processing devices of the FEVES
// reproduction: multi-core CPUs (each core is one device p_i, as in the
// paper) and GPU accelerators with one or two copy engines attached to an
// asymmetric host↔device interconnect.
//
// Because this reproduction runs without CUDA hardware, a device is a
// calibrated performance profile: per-module kernel-time coefficients and
// link bandwidths from which the virtual-time simulator derives task
// durations. The profiles for the paper's four devices (Intel Nehalem i7
// 950 and Haswell i7 4770K quad-cores; NVIDIA Fermi GTX 580 and Kepler GTX
// 780 Ti) are calibrated so that their single-device 1080p encoding rates
// match Fig. 6 of the paper, preserving the shape of every experiment.
// Deterministic jitter and frame-indexed perturbations model the
// non-dedicated-system effects of Fig. 7.
package device

import "fmt"

// Class distinguishes CPU cores from GPU accelerators.
type Class int

const (
	// CPU devices compute directly on host memory: no transfers needed.
	CPU Class = iota
	// GPU devices fetch inputs from and return outputs to host DRAM
	// across the interconnect, via their copy engine(s).
	GPU
)

func (c Class) String() string {
	if c == CPU {
		return "CPU"
	}
	return "GPU"
}

// Profile is the calibrated performance description of one device. Kernel
// coefficients are seconds per macroblock (scaled by the workload
// parameters); bandwidths are bytes per second per direction.
type Profile struct {
	Name        string
	Class       Class
	CopyEngines int // 0 for CPU, 1 or 2 for GPUs

	// MECandSec is the FSBM cost per macroblock, per search candidate,
	// per usable reference frame (ME work scales with SA²·RF).
	MECandSec float64
	// SMESec is the sub-pel refinement cost per macroblock per usable
	// reference frame (41 partitions × 17 candidate positions).
	SMESec float64
	// INTSec is the interpolation cost per macroblock (one new reference
	// frame is interpolated per encoded frame, so INT is RF-independent).
	INTSec float64
	// RStarSec is the cost per macroblock of the whole R* group
	// (MC + TQ + TQ⁻¹ + DBL and entropy coding).
	RStarSec float64

	// H2DBytesPerSec / D2HBytesPerSec model the asymmetric interconnect.
	H2DBytesPerSec float64
	D2HBytesPerSec float64
	// TransferLatency is the fixed per-transfer setup cost in seconds.
	TransferLatency float64

	// Jitter is the relative amplitude of the deterministic run-to-run
	// noise applied to kernel times (models measurement noise on a real,
	// non-dedicated system).
	Jitter float64
}

// Validate sanity-checks a profile.
func (p Profile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("device: profile needs a name")
	case p.MECandSec <= 0 || p.SMESec <= 0 || p.INTSec <= 0 || p.RStarSec <= 0:
		return fmt.Errorf("device %s: kernel coefficients must be positive", p.Name)
	case p.Class == GPU && (p.CopyEngines < 1 || p.CopyEngines > 2):
		return fmt.Errorf("device %s: GPU needs 1 or 2 copy engines", p.Name)
	case p.Class == GPU && (p.H2DBytesPerSec <= 0 || p.D2HBytesPerSec <= 0):
		return fmt.Errorf("device %s: GPU needs positive link bandwidths", p.Name)
	case p.Class == CPU && p.CopyEngines != 0:
		return fmt.Errorf("device %s: CPU cores have no copy engines", p.Name)
	case p.Jitter < 0 || p.Jitter > 0.5:
		return fmt.Errorf("device %s: jitter %v out of [0, 0.5]", p.Name, p.Jitter)
	}
	return nil
}

// KernelCalibration records the measured speedup of each optimized kernel
// over the scalar reference kernels (me.SearchRowsRef, sme.RefineRowsRef,
// interp.InterpolateRowsRef, deblock.FilterFrameRef) that the Fig. 6 base
// anchoring was derived against. The shipped profiles divide the base
// coefficients by these factors, so simulated per-MB-row costs track the
// restructured kernels; the factors come from the internal/bench kernel
// benchmarks (ns/MB fast vs reference, geometric mean over platforms).
type KernelCalibration struct {
	ME, SME, INT, RStar float64
}

// DefaultCalibration is the speedup measured after the stride/SWAR kernel
// pass: SAD-reuse SWAR full search, 4×4-cell-memoized sub-pel refinement,
// flat-scratch interpolation, and the copy-based MC + stride deblocking
// that dominate the R* group's kernel share.
func DefaultCalibration() KernelCalibration {
	return KernelCalibration{ME: 5.5, SME: 3.9, INT: 1.15, RStar: 1.25}
}

// Validate checks the calibration factors.
func (c KernelCalibration) Validate() error {
	if c.ME < 1 || c.SME < 1 || c.INT < 1 || c.RStar < 1 {
		return fmt.Errorf("device: calibration factors %+v must all be >= 1", c)
	}
	return nil
}

// Calibrated returns a copy of the profile with the kernel coefficients
// divided by the measured speedups.
func (p Profile) Calibrated(c KernelCalibration) Profile {
	p.MECandSec /= c.ME
	p.SMESec /= c.SME
	p.INTSec /= c.INT
	p.RStarSec /= c.RStar
	return p
}

// Uncalibrated is the inverse of Calibrated: the kernel coefficients are
// multiplied back by the factors, restoring the Fig. 6 base anchoring.
// Paper-figure reproductions run on uncalibrated profiles so their
// absolute rates stay comparable to the published measurements.
func (p Profile) Uncalibrated(c KernelCalibration) Profile {
	p.MECandSec *= c.ME
	p.SMESec *= c.SME
	p.INTSec *= c.INT
	p.RStarSec *= c.RStar
	return p
}

// The base profiles are anchored to Fig. 6 of the paper at SA 32×32,
// 1 RF, 1080p with the original scalar kernels: CPU_N ≈ 12 fps
// (quad-core), CPU_H ≈ 1.7×CPU_N, GPU_F ≈ 29 fps, GPU_K ≈ 2×GPU_F;
// module shares ME 50%, SME 10%, INT 30%, R* 10%, which reproduces the
// real-time crossovers of Fig. 6(a)/(b). The shipped constructors divide
// the base coefficients by DefaultCalibration — the speedups measured
// after the kernel restructuring — so the absolute anchoring survives in
// the base profiles while simulated costs track the current kernels.
// CPU coefficients below are per core (×4 the whole-CPU cost).

// baseCPUNehalemCore is the Fig. 6-anchored per-core profile of the Intel
// Nehalem i7 950 (CPU_N) with the pre-restructuring scalar kernels.
func baseCPUNehalemCore() Profile {
	return Profile{
		Name: "CPU_N-core", Class: CPU,
		MECandSec: 1.943e-8, SMESec: 3.979e-6, INTSec: 1.194e-5, RStarSec: 3.979e-6,
		Jitter: 0.02,
	}
}

// CPUNehalemCore returns the per-core profile of the Intel Nehalem i7 950
// (CPU_N in the paper), with SSE 4.2-class kernels.
func CPUNehalemCore() Profile {
	return baseCPUNehalemCore().Calibrated(DefaultCalibration())
}

// baseCPUHaswellCore is the Fig. 6-anchored per-core CPU_H profile.
func baseCPUHaswellCore() Profile {
	return Profile{
		Name: "CPU_H-core", Class: CPU,
		MECandSec: 1.143e-8, SMESec: 2.340e-6, INTSec: 7.022e-6, RStarSec: 2.340e-6,
		Jitter: 0.02,
	}
}

// CPUHaswellCore returns the per-core profile of the Intel Haswell i7
// 4770K (CPU_H), with AVX2-class kernels (≈1.7× faster than CPU_N).
func CPUHaswellCore() Profile {
	return baseCPUHaswellCore().Calibrated(DefaultCalibration())
}

// baseGPUFermi is the Fig. 6-anchored GPU_F profile.
func baseGPUFermi() Profile {
	return Profile{
		Name: "GPU_F", Class: GPU, CopyEngines: 1,
		MECandSec: 2.055e-9, SMESec: 4.208e-7, INTSec: 1.263e-6, RStarSec: 4.208e-7,
		H2DBytesPerSec: 6e9, D2HBytesPerSec: 5.2e9, TransferLatency: 8e-6,
		Jitter: 0.02,
	}
}

// GPUFermi returns the profile of the NVIDIA Fermi GTX 580 (GPU_F), a
// single-copy-engine accelerator on a PCIe-2 class link.
func GPUFermi() Profile {
	return baseGPUFermi().Calibrated(DefaultCalibration())
}

// baseGPUKepler is the Fig. 6-anchored GPU_K profile.
func baseGPUKepler() Profile {
	return Profile{
		Name: "GPU_K", Class: GPU, CopyEngines: 1,
		MECandSec: 1.028e-9, SMESec: 2.104e-7, INTSec: 6.313e-7, RStarSec: 2.104e-7,
		H2DBytesPerSec: 1.1e10, D2HBytesPerSec: 1e10, TransferLatency: 6e-6,
		Jitter: 0.02,
	}
}

// GPUKepler returns the profile of the NVIDIA Kepler GTX 780 Ti (GPU_K),
// ≈2× GPU_F with a PCIe-3 class link. The GeForce Kepler exposes a single
// copy engine; the dual-copy-engine variant used by the A2 ablation is
// obtained with WithCopyEngines.
func GPUKepler() Profile {
	return baseGPUKepler().Calibrated(DefaultCalibration())
}

// WithCopyEngines returns a copy of the profile with the given number of
// copy engines (the single- vs dual-copy-engine ablation of §III-B).
func (p Profile) WithCopyEngines(n int) Profile {
	p.CopyEngines = n
	p.Name = fmt.Sprintf("%s/%dce", p.Name, n)
	return p
}

// Scaled returns a copy of the profile with every kernel coefficient
// multiplied by f (f < 1 means faster). Used to build custom devices.
func (p Profile) Scaled(f float64, name string) Profile {
	p.MECandSec *= f
	p.SMESec *= f
	p.INTSec *= f
	p.RStarSec *= f
	p.Name = name
	return p
}

// GPUTesla returns the profile of a Tesla-generation NVIDIA GPU (e.g. a
// GTX 280-class part) — the oldest architecture the paper's Parallel
// Modules library supports. Roughly 2.2× slower than Fermi on these
// kernels, on a narrower PCIe-1.x-class link.
func GPUTesla() Profile {
	f := GPUFermi()
	p := f.Scaled(2.2, "GPU_T")
	p.H2DBytesPerSec = 2.8e9
	p.D2HBytesPerSec = 2.4e9
	p.TransferLatency = 12e-6
	return p
}
