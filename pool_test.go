package feves

import (
	"bytes"
	"sync"
	"testing"
)

func poolYUV(w, h, frames int) []byte {
	fb := w * h * 3 / 2
	buf := make([]byte, frames*fb)
	for i := range buf {
		buf[i] = byte((i*13 + i/fb*41) % 253)
	}
	return buf
}

// TestPoolSingleSessionMatchesPlainSimulation checks that a lone tenant
// gets the whole platform and reproduces the plain Simulation timings
// exactly.
func TestPoolSingleSessionMatchesPlainSimulation(t *testing.T) {
	cfg := Config{Width: 1920, Height: 1088}
	const frames = 8

	sim, err := NewSimulation(cfg, SysNFK())
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run(frames)
	if err != nil {
		t.Fatal(err)
	}

	p, err := NewPool(SysNFK())
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.NewSimulationSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Devices(); len(got) != 6 {
		t.Fatalf("lone session leased %v, want all 6 devices", got)
	}
	for i := 0; i < frames; i++ {
		got, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if got.Seconds != want[i].Seconds || got.Tau1 != want[i].Tau1 {
			t.Fatalf("frame %d: pool session τtot %v, plain simulation %v",
				i, got.Seconds, want[i].Seconds)
		}
	}
}

// TestPoolConcurrentEncodersBitExact runs several encoder sessions over
// one pool concurrently — with arrivals re-partitioning the leases under
// the running sessions — and requires every coded stream to be
// byte-identical to a solo encode of the same sequence.
func TestPoolConcurrentEncodersBitExact(t *testing.T) {
	const w, h, frames = 64, 64, 4
	cfg := Config{Width: w, Height: h}
	yuv := poolYUV(w, h, frames)
	fb := w * h * 3 / 2

	enc, err := NewEncoder(cfg, SysNFK())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < frames; i++ {
		if _, err := enc.EncodeYUV(yuv[i*fb : (i+1)*fb]); err != nil {
			t.Fatal(err)
		}
	}
	want := enc.Bitstream()
	if n, err := Verify(want); err != nil || n != frames {
		t.Fatalf("solo reference stream broken: %d frames, %v", n, err)
	}

	p, err := NewPool(SysNFK())
	if err != nil {
		t.Fatal(err)
	}
	const tenants = 4
	streams := make([][]byte, tenants)
	errs := make([]error, tenants)
	var wg sync.WaitGroup
	for ti := 0; ti < tenants; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			s, err := p.NewEncoderSession(cfg)
			if err != nil {
				errs[ti] = err
				return
			}
			defer s.Close()
			for i := 0; i < frames; i++ {
				if _, err := s.EncodeYUV(yuv[i*fb : (i+1)*fb]); err != nil {
					errs[ti] = err
					return
				}
			}
			streams[ti] = s.Bitstream()
		}(ti)
	}
	wg.Wait()
	for ti := 0; ti < tenants; ti++ {
		if errs[ti] != nil {
			t.Fatalf("tenant %d: %v", ti, errs[ti])
		}
		if !bytes.Equal(streams[ti], want) {
			t.Errorf("tenant %d: bitstream differs from solo encode (%d vs %d bytes)",
				ti, len(streams[ti]), len(want))
		}
	}
	if got := p.Sessions(); got != 0 {
		t.Fatalf("%d sessions still leased after close", got)
	}
}

// TestPoolFrameParallelSessionsBitExact churns several frame-parallel
// encoder sessions over one pool concurrently — arrivals re-partition the
// leases under running pairs — and requires every coded stream to match a
// solo frame-parallel encode byte for byte. Run under -race this also
// checks the two-slot pair loop against the pool's lease bookkeeping.
func TestPoolFrameParallelSessionsBitExact(t *testing.T) {
	const w, h, frames = 256, 144, 8
	cfg := Config{Width: w, Height: h, FrameParallel: true}
	yuv := poolYUV(w, h, frames)
	fb := w * h * 3 / 2
	frameAt := func(i int) []byte {
		if i >= frames {
			return nil
		}
		return yuv[i*fb : (i+1)*fb]
	}
	encodePairs := func(pair func(a, b []byte) ([]FrameReport, error)) error {
		for i := 0; i < frames; {
			reps, err := pair(frameAt(i), frameAt(i+1))
			if err != nil {
				return err
			}
			i += len(reps)
		}
		return nil
	}

	enc, err := NewEncoder(cfg, SysNFK())
	if err != nil {
		t.Fatal(err)
	}
	if err := encodePairs(enc.EncodeYUVPair); err != nil {
		t.Fatal(err)
	}
	want := enc.Bitstream()
	if n, err := Verify(want); err != nil || n != frames {
		t.Fatalf("solo reference stream broken: %d frames, %v", n, err)
	}

	p, err := NewPool(SysNFK())
	if err != nil {
		t.Fatal(err)
	}
	const tenants = 3
	streams := make([][]byte, tenants)
	errs := make([]error, tenants)
	var wg sync.WaitGroup
	for ti := 0; ti < tenants; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			s, err := p.NewEncoderSession(cfg)
			if err != nil {
				errs[ti] = err
				return
			}
			defer s.Close()
			if err := encodePairs(s.EncodeYUVPair); err != nil {
				errs[ti] = err
				return
			}
			streams[ti] = s.Bitstream()
		}(ti)
	}
	wg.Wait()
	for ti := 0; ti < tenants; ti++ {
		if errs[ti] != nil {
			t.Fatalf("tenant %d: %v", ti, errs[ti])
		}
		if !bytes.Equal(streams[ti], want) {
			t.Errorf("tenant %d: frame-parallel stream differs from solo encode (%d vs %d bytes)",
				ti, len(streams[ti]), len(want))
		}
	}
	if got := p.Sessions(); got != 0 {
		t.Fatalf("%d sessions still leased after close", got)
	}
}

// TestPoolSessionsSeeDisjointLeases verifies that concurrently live
// sessions never share a device name beyond the physical multiplicity
// (each CPU core appears once; the two GPUs are distinct profiles).
func TestPoolSessionsSeeDisjointLeases(t *testing.T) {
	p, err := NewPool(SysNFK())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Width: 1920, Height: 1088}
	var sessions []*Session
	for i := 0; i < 3; i++ {
		s, err := p.NewSimulationSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	total := 0
	gpus := map[string]int{}
	for _, s := range sessions {
		ds := s.Devices()
		if len(ds) == 0 {
			t.Fatal("session with an empty lease")
		}
		total += len(ds)
		for _, d := range ds {
			if d == "GPU_F" || d == "GPU_K" {
				gpus[d]++
			}
		}
	}
	if total != 6 {
		t.Fatalf("leases cover %d device slots, want all 6", total)
	}
	for name, n := range gpus {
		if n > 1 {
			t.Fatalf("%s leased to %d sessions at once", name, n)
		}
	}
	// Every session must still step on its (possibly shrunken) lease.
	for i, s := range sessions {
		if _, err := s.Step(); err != nil {
			t.Fatalf("session %d step: %v", i, err)
		}
		s.Close()
	}
}

// TestPoolSessionAbsorbsRepartitions drives a session across another
// tenant's arrival and departure and checks it keeps stepping, absorbing
// at least one lease change.
func TestPoolSessionAbsorbsRepartitions(t *testing.T) {
	p, err := NewPool(SysNFK())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Width: 1920, Height: 1088}
	s, err := p.NewSimulationSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 4; i++ {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	other, err := p.NewSimulationSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(); err != nil {
		t.Fatal(err)
	}
	if s.Repartitions() == 0 {
		t.Fatal("session did not pick up the arrival's re-partition")
	}
	if len(s.Devices()) >= 6 {
		t.Fatalf("session kept %v despite a second tenant", s.Devices())
	}
	other.Close()
	if _, err := s.Step(); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Devices()); got != 6 {
		t.Fatalf("lease has %d devices after the other tenant left, want 6", got)
	}
}

func TestPoolModeMisuse(t *testing.T) {
	p, err := NewPool(SysNFK())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Width: 64, Height: 64}
	sim, err := p.NewSimulationSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.EncodeYUV(make([]byte, 64*64*3/2)); err == nil {
		t.Fatal("EncodeYUV accepted on a simulation session")
	}
	sim.Close()
	sim.Close() // idempotent
	if _, err := sim.Step(); err == nil {
		t.Fatal("Step accepted on a closed session")
	}
}

// TestPoolSessionsFailOverThroughThePool kills a leased GPU under two pool
// tenants with the deadline slack armed: pool sessions honour
// Config.DeadlineSlack exactly as serve sessions do, so the dead device
// leaves the pool, both tenants re-lease around it and finish, and the
// encoder tenant's stream equals its solo encode with no frame dropped.
func TestPoolSessionsFailOverThroughThePool(t *testing.T) {
	const w, h, frames = 320, 176, 12
	// SA 64 keeps every leased device loaded, so the dead GPU cannot hide
	// behind an idle assignment (see failoverEncode).
	cfg := Config{Width: w, Height: h, SearchArea: 64, DeadlineSlack: 3}
	yuv := poolYUV(w, h, frames)
	fb := w * h * 3 / 2

	solo, err := NewEncoder(cfg, SysNFK())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < frames; i++ {
		if _, err := solo.EncodeYUV(yuv[i*fb : (i+1)*fb]); err != nil {
			t.Fatal(err)
		}
	}

	pl := SysNFK()
	if err := pl.InjectFaults("die:GPU_F@4"); err != nil {
		t.Fatal(err)
	}
	p, err := NewPool(pl)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := p.NewEncoderSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer enc.Close()
	sim, err := p.NewSimulationSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	for i := 0; i < frames; i++ {
		rep, err := enc.EncodeYUV(yuv[i*fb : (i+1)*fb])
		if err != nil {
			t.Fatalf("encoder tenant, frame %d: %v", i, err)
		}
		if rep.Frame != i {
			t.Fatalf("encoder tenant reported frame %d at input %d — a frame was dropped", rep.Frame, i)
		}
		srep, err := sim.Step()
		if err != nil {
			t.Fatalf("simulation tenant, frame %d: %v", i, err)
		}
		// A dead device multiplies kernel times by 1e9; a sane τtot past the
		// fault frame means the tenant is off it.
		if i > 6 && (rep.Seconds > 1 || srep.Seconds > 1) {
			t.Fatalf("frame %d still ran on the dead GPU: τtot %v / %v s", i, rep.Seconds, srep.Seconds)
		}
	}
	if !bytes.Equal(enc.Bitstream(), solo.Bitstream()) {
		t.Errorf("encoder tenant's stream differs from its solo encode (%d vs %d bytes)",
			len(enc.Bitstream()), len(solo.Bitstream()))
	}
	if n, err := Verify(enc.Bitstream()); err != nil || n != frames {
		t.Errorf("encoder tenant's stream decodes to %d frames (%v), want %d", n, err, frames)
	}
	if up := p.p.UpDevices(); up != 5 {
		t.Errorf("pool has %d devices up, want 5 after GPU_F died", up)
	}
	for _, s := range []*Session{enc, sim} {
		for _, d := range s.Devices() {
			if d == "GPU_F" {
				t.Errorf("a tenant still leases the dead GPU_F: %v", s.Devices())
			}
		}
	}
}
