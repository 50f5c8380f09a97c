// Command feves-fleet runs the FEVES sharded encode fleet: an HTTP
// coordinator federating several simulated nodes — each a full device
// platform with its own pool and serve layer — behind a third-level
// routing LP. Streams submitted to /streams are sharded across nodes at
// GOP boundaries and reassembled bit-exactly; nodes that miss heartbeats
// are declared dead and their shards replay on survivors from the last
// IDR (README §Fleet).
//
//	feves-fleet -nodes sysnfk,sysnfk,sysnt -addr :8090 &
//	curl -d '{"mode":"simulate","width":1920,"height":1088,"frames":300}' localhost:8090/jobs
//	curl -d @stream.json localhost:8090/streams        # GOP-sharded stream
//	curl localhost:8090/streams/stream-1
//	curl localhost:8090/streams/stream-1/bitstream     # reassembled encode
//	curl localhost:8090/debug/state                    # nodes, streams, router LP
//	curl localhost:8090/metrics
//
// The virtual cluster clock ticks every -heartbeat; "die:node1@40" in
// -deaths makes node1 vanish at tick 40, with the coordinator noticing
// -miss-limit ticks later. SIGINT/SIGTERM drains gracefully.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"feves/internal/fleet"
	"feves/internal/platforms"
	"feves/internal/teleflag"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("feves-fleet: ")
	var (
		addr  = flag.String("addr", ":8090", "HTTP listen address")
		nodes = flag.String("nodes", "sysnfk,sysnfk",
			"comma-separated node platforms (labels assigned node0, node1, ...): "+strings.Join(platforms.Names(), " "))
		queueDepth = flag.Int("queue-depth", 16, "per-node admission backlog bound")
		heartbeat  = flag.Duration("heartbeat", 250*time.Millisecond,
			"real-time interval between virtual cluster-clock ticks")
		missLimit = flag.Int("miss-limit", 3,
			"consecutive missed heartbeats before a node is declared dead")
		deaths = flag.String("deaths", "",
			"deterministic node-death schedule: die:LABEL@TICK entries, ';'-separated")
		affinity = flag.Float64("affinity", 0.25,
			"shard affinity: LP share a stream gives up to stay on a node it already uses (0 = off, 1 = collapse onto one node)")
		specSlack = flag.Float64("spec-slack", 0.5,
			"speculative re-lease: completion-fraction lag behind a stream's front-runner that re-leases a straggling shard to a second node (0 = off)")
		check = flag.Bool("check", false,
			"validate every frame's schedule in observe mode on every node")
		slack = flag.Float64("deadline-slack", 0,
			"arm per-session failover on every node: deadlines at LP prediction x slack (0 = off)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second,
			"how long a SIGTERM drain waits for in-flight work before cancelling it")
	)
	tf := teleflag.Register()
	flag.Parse()

	tel, closeTelemetry, err := tf.ServiceSink()
	if err != nil {
		log.Fatal(err)
	}

	var nodeCfgs []fleet.NodeConfig
	for i, name := range strings.Split(*nodes, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		pl, err := platforms.Lookup(name)
		if err != nil {
			log.Fatal(err)
		}
		pl.Seed = uint64(1000 + i) // distinct deterministic jitter per node
		nodeCfgs = append(nodeCfgs, fleet.NodeConfig{
			Label:      fmt.Sprintf("node%d", i),
			Platform:   pl,
			QueueDepth: *queueDepth,
		})
	}
	f, err := fleet.New(fleet.Config{
		Nodes:          nodeCfgs,
		Telemetry:      tel,
		CheckSchedules: *check,
		DeadlineSlack:  *slack,
		MissLimit:      *missLimit,
		Affinity:       *affinity,
		SpecSlack:      *specSlack,
		Deaths:         *deaths,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The virtual cluster clock: each real-time heartbeat interval advances
	// one tick, firing scheduled deaths and the missed-beat detector.
	stopClock := make(chan struct{})
	clockDone := make(chan struct{})
	go func() {
		defer close(clockDone)
		ticker := time.NewTicker(*heartbeat)
		defer ticker.Stop()
		for {
			select {
			case <-stopClock:
				return
			case <-ticker.C:
				for _, label := range f.Tick() {
					log.Printf("tick %d: node %s declared dead (missed %d heartbeats); re-leasing its shards",
						f.Clock(), label, *missLimit)
				}
			}
		}
	}()

	httpSrv := &http.Server{Addr: *addr, Handler: f.Handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Printf("draining (up to %v): rejecting new work, finishing in-flight streams", *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := f.Drain(ctx); err != nil {
			log.Printf("drain timed out, cancelled remaining work: %v", err)
		}
		close(stopClock)
		<-clockDone
		f.Close()
		shctx, shcancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer shcancel()
		httpSrv.Shutdown(shctx)
	}()

	labels := make([]string, len(nodeCfgs))
	for i, nc := range nodeCfgs {
		labels[i] = fmt.Sprintf("%s(%s:%d devices)", nc.Label, nc.Platform.Name, nc.Platform.NumDevices())
	}
	log.Printf("federating %d nodes: %s", len(nodeCfgs), strings.Join(labels, " "))
	log.Printf("heartbeat %v, miss limit %d; serving on %s", *heartbeat, *missLimit, *addr)
	if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-done
	if err := closeTelemetry(); err != nil {
		log.Fatal(err)
	}
}
