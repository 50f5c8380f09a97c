package device

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// FaultKind classifies an injected device fault.
type FaultKind int

const (
	// FaultSlow multiplies the device's kernel times by Factor.
	FaultSlow FaultKind = iota
	// FaultStall makes the device effectively unresponsive (kernel times
	// × StallFactor) for the fault's duration.
	FaultStall
	// FaultDie makes the device permanently unresponsive from Frame on;
	// Frames is ignored.
	FaultDie
)

// String names the kind as it appears in fault specs and telemetry.
func (k FaultKind) String() string {
	switch k {
	case FaultSlow:
		return "slow"
	case FaultStall:
		return "stall"
	case FaultDie:
		return "die"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// StallFactor is the kernel-time multiplier of a stalled or dead device:
// large enough that any per-frame deadline check trips, small enough that
// the simulated-time arithmetic stays finite.
const StallFactor = 1e9

// Fault is one scheduled fault on one device. Like the jitter Seed, a
// fault schedule is part of the platform description and replays
// identically from run to run.
type Fault struct {
	// Device is the parent-platform device index the fault hits.
	Device int
	Kind   FaultKind
	// Frame is the first affected inter-frame (1-based, the same counter
	// EffectiveFactor sees).
	Frame int
	// Frames is the duration; 0 means permanent. Ignored for FaultDie.
	Frames int
	// Factor is the slowdown multiplier of a FaultSlow (> 1).
	Factor float64
}

// active reports whether the fault affects the given inter-frame.
func (f Fault) active(frame int) bool {
	if frame < f.Frame {
		return false
	}
	if f.Kind == FaultDie || f.Frames == 0 {
		return true
	}
	return frame < f.Frame+f.Frames
}

// FaultPlan is a deterministic per-device fault schedule plus an optional
// seeded "chaos" clause that injects transient slowdowns at a given rate.
type FaultPlan struct {
	Faults []Fault

	// ChaosSeed/ChaosRate enable seeded transient slowdowns: each
	// (frame, device) pair independently suffers a 4–16× slowdown with
	// probability ChaosRate, derived from ChaosSeed exactly like the
	// jitter hash so runs replay bit-identically.
	ChaosSeed uint64
	ChaosRate float64
}

// Factor returns the combined kernel-time multiplier the plan applies to
// device dev (parent index) during inter-frame frame. 1 means unaffected.
func (fp *FaultPlan) Factor(frame, dev int) float64 {
	if fp == nil {
		return 1
	}
	f := 1.0
	for _, flt := range fp.Faults {
		if flt.Device != dev || !flt.active(frame) {
			continue
		}
		switch flt.Kind {
		case FaultSlow:
			f *= flt.Factor
		case FaultStall, FaultDie:
			f *= StallFactor
		}
	}
	if fp.ChaosRate > 0 {
		h := splitmix64(fp.ChaosSeed ^ splitmix64(uint64(frame)<<32|uint64(dev)<<8|0xC4A05))
		u := float64(h>>11) / float64(1<<53)
		if u < fp.ChaosRate {
			// Re-hash so severity is independent of the trigger draw.
			h2 := splitmix64(h)
			u2 := float64(h2>>11) / float64(1<<53)
			f *= 4 + 12*u2
		}
	}
	return f
}

// Dead reports whether a die fault (or a currently active stall) leaves
// device dev unresponsive at frame.
func (fp *FaultPlan) Dead(frame, dev int) bool {
	if fp == nil {
		return false
	}
	for _, flt := range fp.Faults {
		if flt.Device != dev || !flt.active(frame) {
			continue
		}
		if flt.Kind == FaultDie || flt.Kind == FaultStall {
			return true
		}
	}
	return false
}

// Empty reports whether the plan injects nothing.
func (fp *FaultPlan) Empty() bool {
	return fp == nil || (len(fp.Faults) == 0 && fp.ChaosRate == 0)
}

// ParseFaults parses a fault-spec string into a plan. The grammar is a
// semicolon-separated clause list:
//
//	die:DEV@F          device DEV dies at inter-frame F (permanent)
//	stall:DEV@F        DEV stalls from frame F on (permanent)
//	stall:DEV@F+K      DEV stalls for K frames starting at F
//	slow:DEV@FxR       DEV runs R× slower from frame F on
//	slow:DEV@FxR+K     … for K frames
//	chaos:SEEDxRATE    seeded transient slowdowns at probability RATE
//
// DEV is a 0-based device index, or a device name on the supplied
// platform (case-insensitive; pl may be nil to allow only indices).
// Example: "die:1@40; slow:0@10x3+5".
func ParseFaults(spec string, pl *Platform) (*FaultPlan, error) {
	plan := &FaultPlan{}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		kind, rest, ok := strings.Cut(clause, ":")
		if !ok {
			return nil, fmt.Errorf("device: fault clause %q: want KIND:ARGS", clause)
		}
		kind = strings.TrimSpace(strings.ToLower(kind))
		rest = strings.TrimSpace(rest)
		if kind == "chaos" {
			seedStr, rateStr, ok := strings.Cut(rest, "x")
			if !ok {
				return nil, fmt.Errorf("device: fault clause %q: want chaos:SEEDxRATE", clause)
			}
			seed, err := strconv.ParseUint(strings.TrimSpace(seedStr), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("device: fault clause %q: bad seed: %v", clause, err)
			}
			rate, err := strconv.ParseFloat(strings.TrimSpace(rateStr), 64)
			if err != nil || !(rate >= 0 && rate <= 1) { // NaN fails both
				return nil, fmt.Errorf("device: fault clause %q: rate must be in [0,1]", clause)
			}
			plan.ChaosSeed, plan.ChaosRate = seed, rate
			continue
		}
		devStr, when, ok := strings.Cut(rest, "@")
		if !ok {
			return nil, fmt.Errorf("device: fault clause %q: want %s:DEV@FRAME...", clause, kind)
		}
		dev, err := resolveDevice(strings.TrimSpace(devStr), pl)
		if err != nil {
			return nil, fmt.Errorf("device: fault clause %q: %v", clause, err)
		}
		flt := Fault{Device: dev}
		switch kind {
		case "die":
			flt.Kind = FaultDie
		case "stall":
			flt.Kind = FaultStall
		case "slow":
			flt.Kind = FaultSlow
		default:
			return nil, fmt.Errorf("device: fault clause %q: unknown kind %q", clause, kind)
		}
		// WHEN is FRAME, optionally xFACTOR (slow only), optionally +DUR.
		if frameStr, durStr, ok := strings.Cut(when, "+"); ok {
			when = frameStr
			d, err := strconv.Atoi(strings.TrimSpace(durStr))
			if err != nil || d < 1 {
				return nil, fmt.Errorf("device: fault clause %q: duration must be a positive frame count", clause)
			}
			if flt.Kind == FaultDie {
				return nil, fmt.Errorf("device: fault clause %q: die faults are permanent", clause)
			}
			flt.Frames = d
		}
		if flt.Kind == FaultSlow {
			frameStr, facStr, ok := strings.Cut(when, "x")
			if !ok {
				return nil, fmt.Errorf("device: fault clause %q: want slow:DEV@FRAMExFACTOR", clause)
			}
			when = frameStr
			fac, err := strconv.ParseFloat(strings.TrimSpace(facStr), 64)
			if err != nil || !(fac > 1) || math.IsInf(fac, 1) {
				return nil, fmt.Errorf("device: fault clause %q: slow factor must be finite and > 1", clause)
			}
			flt.Factor = fac
		}
		frame, err := strconv.Atoi(strings.TrimSpace(when))
		if err != nil || frame < 1 {
			return nil, fmt.Errorf("device: fault clause %q: frame must be >= 1", clause)
		}
		flt.Frame = frame
		plan.Faults = append(plan.Faults, flt)
	}
	if plan.Empty() {
		return nil, fmt.Errorf("device: fault spec %q has no clauses", spec)
	}
	return plan, nil
}

// resolveDevice maps an index literal or device name to a platform index.
func resolveDevice(s string, pl *Platform) (int, error) {
	if i, err := strconv.Atoi(s); err == nil {
		if pl != nil && (i < 0 || i >= pl.NumDevices()) {
			return 0, fmt.Errorf("device index %d out of range [0,%d)", i, pl.NumDevices())
		}
		if pl == nil && i < 0 {
			return 0, fmt.Errorf("device index %d negative", i)
		}
		return i, nil
	}
	if pl == nil {
		return 0, fmt.Errorf("device name %q needs a platform to resolve against", s)
	}
	for i := 0; i < pl.NumDevices(); i++ {
		if strings.EqualFold(pl.Dev(i).Name, s) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("no device named %q on platform %s", s, pl.Name)
}
