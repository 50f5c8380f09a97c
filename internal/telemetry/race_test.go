package telemetry

import (
	"fmt"
	"io"
	"sync"
	"testing"
)

// TestConcurrentSessionScopes hammers one shared Telemetry through several
// ForSession scopes at once — the multi-tenant serving shape — while
// readers snapshot the trace ring, the flight document and the metrics
// exposition. Run under -race this pins down the locking discipline of
// the shared rings and the per-scope instrument caches.
func TestConcurrentSessionScopes(t *testing.T) {
	tel := &Telemetry{
		Metrics: NewRegistry(),
		Trace:   NewTraceWriterCap(512), // small: force ring wrap under load
		Flight:  NewFlightRecorder(16),
	}

	const tenants, frames = 4, 120
	var wg sync.WaitGroup
	for s := 0; s < tenants; s++ {
		scope := tel.ForSession(fmt.Sprintf("tenant-%d", s))
		wg.Add(1)
		go func(sc *Telemetry, id int) {
			defer wg.Done()
			spans := []Span{
				{Resource: "dev0.compute", Label: "kernel_me", Start: 0, End: 0.010},
				{Resource: "dev0.ce0", Label: "copy_sf", Start: 0.010, End: 0.012},
			}
			for f := 1; f <= frames; f++ {
				sc.FrameStart(f, false)
				sc.FrameEnd(FrameRecord{
					Frame: f, Attempt: f % 3, Tau1: 0.010, Tau2: 0.015, Tot: 0.020,
					PredTot: 0.019, M: []int{4, 2}, L: []int{3, 3},
					LP: &LPSolveStats{Solves: 1, Pivots: 7},
				}, spans, 0.020)
				sc.Audit(AuditRecord{Frame: f, Balancer: "lp", PredTot: 0.019, Measured: 0.020})
				switch f % 40 {
				case 10:
					sc.HealthTransition(f, 0, "healthy", "degraded", "tau1")
					sc.FrameRetry(f, 1, "tau1", []int{0})
				case 20:
					sc.Incident("device_down", f, 0, "test loss")
					_ = sc.CaptureBundle("pool_failover", f, "re-leased")
				}
			}
		}(scope, s)
	}

	// Concurrent readers: every introspection surface the endpoints serve.
	stop := make(chan struct{})
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = tel.Trace.Export(io.Discard)
			_ = tel.Flight.Doc()
			_ = tel.Metrics.Expose()
			_ = tel.Metrics.Describe()
		}
	}()
	wg.Wait()
	close(stop)
	rwg.Wait()

	if got := tel.Trace.Sessions(); len(got) != tenants {
		t.Fatalf("trace grew %d tenant lanes, want %d: %v", len(got), tenants, got)
	}
	if tel.Trace.Dropped() == 0 {
		t.Fatal("512-event ring never wrapped under 4x120 frames — cap not enforced")
	}
	if got := len(tel.Flight.Bundles()); got != tenants*(frames/40) {
		t.Fatalf("captured %d bundles, want %d", got, tenants*(frames/40))
	}
}
