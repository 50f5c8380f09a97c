package serve

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"feves/internal/core"
	"feves/internal/device"
	"feves/internal/h264"
	"feves/internal/platforms"
	"feves/internal/telemetry"
	"feves/internal/vcm"
)

func testPlatform(t *testing.T) *device.Platform {
	t.Helper()
	pl, err := platforms.Lookup("sysnfk")
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func simSpec(frames int) JobSpec {
	return JobSpec{Mode: ModeSimulate, Width: 1920, Height: 1088, Frames: frames}
}

// testYUV builds a deterministic I420 sequence.
func testYUV(w, h, frames int) []byte {
	fb := w * h * 3 / 2
	buf := make([]byte, frames*fb)
	for i := range buf {
		buf[i] = byte((i*7 + i/fb*31) % 251)
	}
	return buf
}

func TestServeCompletesMoreSessionsThanDevices(t *testing.T) {
	pl := testPlatform(t)
	s, err := New(Config{Platform: pl, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Pool().Capacity(); got != 6 {
		t.Fatalf("sysnfk capacity = %d, want 6", got)
	}

	const n = 8 // more than the 6-device pool can run at once
	jobs := make([]*Job, n)
	for i := range jobs {
		j, err := s.Submit(simSpec(4))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs[i] = j
	}
	for i, j := range jobs {
		if st := j.Wait(); st != StatusDone {
			t.Fatalf("job %d finished %q (%s)", i, st, j.Status().Error)
		}
		rs := j.Results()
		if len(rs) != 4 {
			t.Fatalf("job %d: %d results, want 4", i, len(rs))
		}
		if !rs[0].Intra || rs[0].Seconds != 0 {
			t.Fatalf("job %d: frame 0 should be the intra frame: %+v", i, rs[0])
		}
		for _, r := range rs[1:] {
			if r.Seconds <= 0 {
				t.Fatalf("job %d frame %d: non-positive tau_tot %v", i, r.Frame, r.Seconds)
			}
			if len(r.Devices) == 0 {
				t.Fatalf("job %d frame %d: no leased devices", i, r.Frame)
			}
		}
	}
	if got := s.Pool().Sessions(); got != 0 {
		t.Fatalf("%d leases outstanding after all jobs finished", got)
	}
}

func TestSubmitBackpressure(t *testing.T) {
	s, err := New(Config{Platform: testPlatform(t), MaxSessions: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// One session runs, the scheduler can hold one dequeued job, one fits
	// in the backlog: a burst beyond that must observe ErrBusy.
	busy := false
	for i := 0; i < 6; i++ {
		if _, err := s.Submit(simSpec(200)); errors.Is(err, ErrBusy) {
			busy = true
			break
		} else if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if !busy {
		t.Fatal("no submission hit ErrBusy despite a full backlog")
	}
	for _, j := range s.Jobs() {
		j.Cancel()
	}
	if !s.WaitAll(30 * time.Second) {
		t.Fatal("jobs did not wind down after cancellation")
	}
}

func TestDrainFinishesInFlightAndRejectsNew(t *testing.T) {
	s, err := New(Config{Platform: testPlatform(t), QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	job, err := s.Submit(simSpec(2000))
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the session to actually start before draining.
	if _, done := job.Next(0); done {
		t.Fatalf("job finished before drain: %+v", job.Status())
	}

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()

	// Admission must reject immediately once draining, even while the
	// in-flight session is still running.
	deadline := time.After(10 * time.Second)
	for {
		_, err := s.Submit(simSpec(2))
		if errors.Is(err, ErrDraining) {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("submit during drain returned %v, want ErrDraining", err)
		case <-time.After(time.Millisecond):
		}
	}

	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := job.Wait(); st != StatusDone {
		t.Fatalf("in-flight job finished %q after drain, want done", st)
	}
}

func TestDrainTimeoutCancelsSessions(t *testing.T) {
	s, err := New(Config{Platform: testPlatform(t), QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	job, err := s.Submit(simSpec(100000)) // would run far beyond the deadline
	if err != nil {
		t.Fatal(err)
	}
	if _, done := job.Next(0); done {
		t.Fatal("job finished immediately")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain = %v, want deadline exceeded", err)
	}
	if st := job.Wait(); st != StatusCanceled {
		t.Fatalf("job finished %q after forced drain, want canceled", st)
	}
}

func TestCancelStopsRunningSession(t *testing.T) {
	s, err := New(Config{Platform: testPlatform(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	job, err := s.Submit(simSpec(100000))
	if err != nil {
		t.Fatal(err)
	}
	if _, done := job.Next(0); done {
		t.Fatal("job finished immediately")
	}
	job.Cancel()
	if st := job.Wait(); st != StatusCanceled {
		t.Fatalf("status %q, want canceled", st)
	}
	if got := s.Pool().Sessions(); got != 0 {
		t.Fatalf("%d leases outstanding after cancel", got)
	}
}

// TestEncodeJobBitExactVersusSolo submits concurrent encode jobs to the
// shared pool and requires each coded stream to be byte-identical to a
// solo run of the same sequence on the whole platform — functional
// output must not depend on which devices a tenant happened to lease.
func TestEncodeJobBitExactVersusSolo(t *testing.T) {
	const w, h, frames = 64, 64, 3
	yuv := testYUV(w, h, frames)
	spec := JobSpec{Mode: ModeEncode, Width: w, Height: h, YUV: yuv}

	// Solo reference: one framework over the full platform.
	fw, err := core.New(core.Options{
		Platform: testPlatform(t),
		Codec:    spec.CodecConfig(),
		Mode:     vcm.Functional,
	})
	if err != nil {
		t.Fatal(err)
	}
	fb := w * h * 3 / 2
	for i := 0; i < frames; i++ {
		cf := h264.NewFrame(w, h)
		cf.Poc = i
		if err := cf.LoadYUV(yuv[i*fb : (i+1)*fb]); err != nil {
			t.Fatal(err)
		}
		if _, err := fw.EncodeNext(cf); err != nil {
			t.Fatal(err)
		}
	}
	want := fw.Bitstream()
	if len(want) == 0 {
		t.Fatal("solo reference produced an empty bitstream")
	}

	s, err := New(Config{Platform: testPlatform(t), QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	jobs := make([]*Job, 4)
	for i := range jobs {
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	for i, j := range jobs {
		if st := j.Wait(); st != StatusDone {
			t.Fatalf("encode job %d finished %q (%s)", i, st, j.Status().Error)
		}
		if got := j.Bitstream(); !bytes.Equal(got, want) {
			t.Fatalf("encode job %d: bitstream differs from solo run (%d vs %d bytes)",
				i, len(got), len(want))
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	s, err := New(Config{Platform: testPlatform(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	bad := []JobSpec{
		{Mode: "transcode", Width: 64, Height: 64, Frames: 2},
		{Mode: ModeSimulate, Width: 60, Height: 64, Frames: 2},
		{Mode: ModeSimulate, Width: 64, Height: 64},
		{Mode: ModeSimulate, Width: 64, Height: 64, Frames: 2, YUV: []byte{1}},
		{Mode: ModeEncode, Width: 64, Height: 64},
		{Mode: ModeEncode, Width: 64, Height: 64, YUV: make([]byte, 100)},
	}
	for i, spec := range bad {
		if _, err := s.Submit(spec); err == nil {
			t.Errorf("spec %d accepted, want validation error", i)
		}
	}
}

// TestFailoverSharedPoolExcludesDeadDevice runs two concurrent tenants on
// a pooled SysNFK while the Fermi GPU dies: the session leasing it must
// fail over onto its remaining devices and finish, the pool must remove
// the device for every tenant, and the loss must be visible in the shared
// metrics.
func TestFailoverSharedPoolExcludesDeadDevice(t *testing.T) {
	tel := &telemetry.Telemetry{Metrics: telemetry.NewRegistry()}
	s, err := New(Config{
		Platform:      testPlatform(t),
		MaxSessions:   2,
		QueueDepth:    8,
		Telemetry:     tel,
		DeadlineSlack: 3,
		FaultSpec:     "die:GPU_F@8",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	jobs := make([]*Job, 2)
	for i := range jobs {
		j, err := s.Submit(simSpec(25))
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	for i, j := range jobs {
		if st := j.Wait(); st != StatusDone {
			t.Fatalf("job %d finished %q (%s)", i, st, j.Status().Error)
		}
	}
	if down := s.Pool().Down(); !down[0] {
		t.Fatalf("pool down mask = %v, want device 0 (GPU_F) down", down)
	}
	if got := s.Pool().UpDevices(); got != 5 {
		t.Fatalf("UpDevices = %d after GPU death, want 5", got)
	}
	scrape := tel.Metrics.Expose()
	for _, want := range []string{
		"feves_serve_devices_lost_total 1",
		"feves_frame_retries_total",
		"feves_serve_repartitions_total",
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("metrics scrape missing %q", want)
		}
	}

	// The shrunk pool still serves new tenants, on up devices only.
	j, err := s.Submit(simSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	if st := j.Wait(); st != StatusDone {
		t.Fatalf("post-loss job finished %q (%s)", st, j.Status().Error)
	}
	for _, r := range j.Results() {
		for _, name := range r.Devices {
			if name == "GPU_F" {
				t.Fatal("post-loss session was leased the dead GPU")
			}
		}
	}
}
