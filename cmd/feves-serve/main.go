// Command feves-serve runs the FEVES multi-tenant encode service: an HTTP
// API in front of a shared device pool that leases disjoint device subsets
// to concurrent encode/simulate sessions, re-partitioning the platform as
// tenants arrive and depart (README §Serving).
//
// Submit a job, poll it, and follow its per-frame results live:
//
//	feves-serve -platform sysnfk -addr :8080 &
//	curl -d '{"mode":"simulate","width":1920,"height":1088,"frames":300}' localhost:8080/jobs
//	curl localhost:8080/jobs/job-1
//	curl -N localhost:8080/jobs/job-1/results        # JSONL stream
//	curl localhost:8080/metrics                      # Prometheus text
//	curl localhost:8080/debug/state                  # pool/lease/health topology
//	curl localhost:8080/debug/flight                 # flight recorder + bundles
//	curl localhost:8080/debug/trace                  # live Perfetto snapshot
//
// SIGINT/SIGTERM drains gracefully: new submissions are rejected with 503
// while in-flight sessions finish (bounded by -drain-timeout, after which
// they are cancelled at the next frame boundary). SIGQUIT snapshots the
// live trace ring to -trace-snapshot without stopping the service.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"feves/internal/platforms"
	"feves/internal/serve"
	"feves/internal/teleflag"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("feves-serve: ")
	var (
		addr     = flag.String("addr", ":8080", "HTTP listen address")
		platform = flag.String("platform", "sysnfk",
			"shared platform to pool: "+strings.Join(platforms.Names(), " "))
		maxSessions = flag.Int("max-sessions", 0,
			"concurrent session cap (0 = one per pooled device)")
		queueDepth = flag.Int("queue-depth", 16,
			"admitted-but-not-running backlog bound; beyond it submissions get 503")
		check = flag.Bool("check", false,
			"validate every frame's schedule in observe mode (violations are counted in feves_check_violations_total, not fatal)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second,
			"how long a SIGTERM drain waits for in-flight sessions before cancelling them")
		faults = flag.String("inject-faults", "",
			"deterministic fault spec for the pooled platform (die:DEV@F stall:DEV@F[+K] slow:DEV@FxR[+K] chaos:SEEDxRATE, ';'-separated)")
		slack = flag.Float64("deadline-slack", 0,
			"arm autonomous failover in every session: deadlines at LP prediction x slack; excluded devices leave the pool (0 = off)")
		traceSnapshot = flag.String("trace-snapshot", "feves-serve.trace.json",
			"file the SIGQUIT handler writes the live Perfetto trace ring to, without stopping the service ('' = disabled)")
	)
	tf := teleflag.Register()
	flag.Parse()

	pl, err := platforms.Lookup(*platform)
	if err != nil {
		log.Fatal(err)
	}
	tel, closeTelemetry, err := tf.ServiceSink()
	if err != nil {
		log.Fatal(err)
	}

	s, err := serve.New(serve.Config{
		Platform:       pl,
		MaxSessions:    *maxSessions,
		QueueDepth:     *queueDepth,
		CheckSchedules: *check,
		Telemetry:      tel,
		DeadlineSlack:  *slack,
		FaultSpec:      *faults,
	})
	if err != nil {
		log.Fatal(err)
	}

	// SIGQUIT snapshots the live trace ring to a Perfetto-loadable file
	// without disturbing the service — the file-free counterpart of
	// GET /debug/trace for operators at the terminal.
	if *traceSnapshot != "" && tel.Trace != nil {
		quit := make(chan os.Signal, 1)
		signal.Notify(quit, syscall.SIGQUIT)
		go func() {
			for range quit {
				f, err := os.Create(*traceSnapshot)
				if err != nil {
					log.Printf("SIGQUIT: trace snapshot: %v", err)
					continue
				}
				err = tel.Trace.Export(f)
				if e := f.Close(); err == nil {
					err = e
				}
				if err != nil {
					log.Printf("SIGQUIT: trace snapshot: %v", err)
					continue
				}
				log.Printf("SIGQUIT: wrote trace snapshot to %s (%d frames in ring, %d events dropped)",
					*traceSnapshot, tel.Trace.Frames(), tel.Trace.Dropped())
			}
		}()
	}

	httpSrv := &http.Server{Addr: *addr, Handler: s.Handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Printf("draining (up to %v): rejecting new jobs, finishing in-flight sessions", *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			log.Printf("drain timed out, cancelled remaining sessions: %v", err)
		}
		s.Close()
		shctx, shcancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer shcancel()
		httpSrv.Shutdown(shctx)
	}()

	sessions := *maxSessions
	if sessions <= 0 || sessions > pl.NumDevices() {
		sessions = pl.NumDevices()
	}
	log.Printf("pooling %s (%d devices), max %d sessions, queue depth %d",
		pl.Name, pl.NumDevices(), sessions, s.QueueDepth())
	log.Printf("serving on %s", *addr)
	if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-done
	if err := closeTelemetry(); err != nil {
		log.Fatal(err)
	}
}
