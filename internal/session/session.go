// Package session is the one driver between an input — packed I420 frames
// or a frame count — and core.Framework. Every surface that runs the
// paper's Algorithm 1 (feves.Encoder, feves.Simulation, feves.Pool
// sessions, serve jobs) is a thin caller of it, so frame loading and
// numbering, the window choice, lease pick-up and pool-level failover
// exist once. A standalone encoder is a session whose lease never changes.
package session

import (
	"errors"
	"fmt"
	"io"

	"feves/internal/core"
	"feves/internal/device"
	"feves/internal/h264"
	"feves/internal/pool"
	"feves/internal/telemetry"
	"feves/internal/vcm"
)

// PaperDefaults replaces zero coding parameters with the paper's
// evaluation configuration: SA 32×32, 1 RF, QP {27, 28}.
func PaperDefaults(searchArea, refFrames, iqp, pqp *int) {
	if *searchArea == 0 {
		*searchArea = 32
	}
	if *refFrames == 0 {
		*refFrames = 1
	}
	if *iqp == 0 {
		*iqp = 27
	}
	if *pqp == 0 {
		*pqp = 28
	}
}

// Hooks lets the owner of a pooled session count, under its own metric
// names, the devices the session lost and the lease changes it picked up.
type Hooks struct {
	DeviceLost, Repartitioned func()
}

// Driver runs one session. It is not safe for concurrent use.
type Driver struct {
	fw    *core.Framework
	lease *pool.Lease // nil: standalone
	hooks Hooks
	tel   *telemetry.Telemetry

	// pl is the platform the framework runs on: the lease's subplatform as
	// of epoch, or the fixed platform of a standalone session.
	pl     *device.Platform
	epoch  uint64
	names  []string
	repart int
	// failingOver: this session pushed a device out of the pool; the
	// post-mortem bundle waits for the re-lease so it holds the whole chain.
	failingOver bool

	width, height     int
	functional, pairs bool
	maxReplays        int

	rs     [2]core.Result
	held   bool // rs[1] is Step's buffered second result
	closed bool

	// src are the source frames load fills, by position in the window: the
	// framework is done with a frame when its window returns.
	src [2]*h264.Frame
}

// New builds a session. With a lease the framework runs on the lease's
// current subplatform (opts.Platform is ignored), follows the lease at
// window boundaries and reports the devices it loses to the lease's pool.
func New(opts core.Options, lease *pool.Lease, hooks Hooks) (*Driver, error) {
	d := &Driver{
		lease: lease, hooks: hooks, tel: opts.Telemetry,
		width: opts.Codec.Width, height: opts.Codec.Height,
		functional: opts.Mode == vcm.Functional, pairs: opts.FrameParallel,
		maxReplays: opts.MaxFrameRetries,
	}
	if d.maxReplays <= 0 {
		d.maxReplays = core.DefaultMaxFrameRetries
	}
	if lease != nil {
		if opts.Platform, d.epoch = lease.Snapshot(); opts.Platform == nil {
			return nil, errors.New("lease orphaned: no devices available")
		}
		if opts.DeadlineSlack > 0 {
			// Fires synchronously inside an encode call, after any re-target,
			// so d.pl is the numbering dev belongs to.
			opts.OnDeviceExcluded = func(dev int) { d.markDown(dev, " after session exclusion") }
		}
	}
	fw, err := core.New(opts)
	if err != nil {
		return nil, err
	}
	d.fw, d.pl, d.names = fw, opts.Platform, opts.Platform.DeviceNames()
	return d, nil
}

// Framework exposes the session's framework (bitstream, introspection).
func (d *Driver) Framework() *core.Framework { return d.fw }

// Devices names the devices the most recent window ran on. The slice is
// replaced, never modified, when the lease changes.
func (d *Driver) Devices() []string { return d.names }

// Repartitions counts the lease changes absorbed at window boundaries.
func (d *Driver) Repartitions() int { return d.repart }

// Close makes every further Encode, Step and Run fail. The lease stays its
// acquirer's to release.
func (d *Driver) Close() { d.closed = true }

var errClosed = errors.New("session closed")

// usable rejects a call on a closed session or on one of the other mode.
func (d *Driver) usable(call string, functional bool) error {
	switch {
	case d.closed:
		return errClosed
	case d.functional != functional:
		return fmt.Errorf("%s on the wrong kind of session (timing-only sessions Step, encoding ones Encode)", call)
	}
	return nil
}

// Encode offers the next frame — or, when yuvB is non-nil, the next two —
// as packed I420 bytes and returns one result per frame consumed. The
// second frame stays unconsumed whenever the window could not be two wide
// (frame-parallel off, an intra boundary, the model still initializing, a
// scene cut in the first frame): offer it again as the next first frame,
// or use Run, which does. The results alias driver storage.
func (d *Driver) Encode(yuvA, yuvB []byte) ([]core.Result, error) {
	if err := d.usable("Encode", true); err != nil {
		return nil, err
	}
	a, err := d.load(yuvA, 0)
	if err != nil {
		return nil, err
	}
	var b *h264.Frame
	if yuvB != nil {
		if b, err = d.load(yuvB, 1); err != nil {
			return nil, err
		}
	}
	return d.offer(a, b, b != nil)
}

// Step advances a timing-only session and returns one frame's result per
// call; a window of two buffers its second result for the next call.
func (d *Driver) Step() (core.Result, error) {
	if err := d.usable("Step", false); err != nil {
		return core.Result{}, err
	}
	if d.held {
		d.held = false
		return d.rs[1], nil
	}
	rs, err := d.offer(nil, nil, true)
	if err != nil {
		return core.Result{}, err
	}
	d.held = len(rs) == 2
	return rs[0], nil
}

// Run drives the session over a whole input. next yields each frame's
// packed I420 bytes in display order (ignored by timing-only sessions) and
// io.EOF after the last; any other error — a cancelled context, say — ends
// the run with it. emit receives every frame's result in display order.
// Frame-parallel sessions look one frame ahead and carry an unconsumed
// second frame into the next window.
func (d *Driver) Run(next func() ([]byte, error), emit func(core.Result)) error {
	if d.closed {
		return errClosed
	}
	var win [2]*h264.Frame // loaded, not yet consumed (nil when timing-only)
	have, width, more := 0, 1, true
	if d.pairs {
		width = 2
	}
	for {
		for more && have < width {
			yuv, err := next()
			if err == io.EOF {
				more = false
				break
			}
			if err == nil && d.functional {
				win[have], err = d.load(yuv, have)
			}
			if err != nil {
				return err
			}
			have++
		}
		if have == 0 {
			return nil
		}
		rs, err := d.offer(win[0], win[1], have == 2)
		if err != nil {
			return err
		}
		for _, r := range rs {
			emit(r)
		}
		if len(rs) == 1 {
			win[0] = win[1] // an unconsumed second frame leads the next window
			d.src[0], d.src[1] = d.src[1], d.src[0]
		}
		win[1] = nil
		have -= len(rs)
	}
}

// load unpacks one I420 frame into the window's source frame ahead and
// numbers it ahead frames past the next one the framework consumes (global
// display order, FrameBase included). The frame is overwritten by the next
// load at the same position.
func (d *Driver) load(yuv []byte, ahead int) (*h264.Frame, error) {
	if d.src[ahead] == nil {
		d.src[ahead] = h264.NewFrame(d.width, d.height)
	}
	f := d.src[ahead]
	f.Poc = d.fw.FramesProcessed() + ahead
	return f, f.LoadYUV(yuv)
}

// offer runs one window — frame a alone, or a and b jointly when pair is
// set and the framework can — on the lease as it stands at the window's
// start, so both frames of a pair run on the same device subset.
func (d *Driver) offer(a, b *h264.Frame, pair bool) ([]core.Result, error) {
	for replays := 0; ; replays++ {
		if err := d.pickUpLease(); err != nil {
			return nil, err
		}
		n, err := 1, error(nil)
		if pair {
			var paired bool
			if d.rs[0], d.rs[1], paired, err = d.fw.EncodePair(a, b); paired {
				n = 2
			}
		} else {
			d.rs[0], err = d.fw.EncodeNext(a)
		}
		if err == nil {
			return d.rs[:n], nil
		}
		// A session whose lease is a single device cannot fail over by itself
		// (the health tracker never excludes the last device). Hand the
		// blamed devices to the pool so every tenant re-partitions away from
		// them, and — if the pool removed one — replay the window on the
		// re-lease: the deadline trips before any kernel mutates encoder
		// state, so the replay is bit-exact.
		var de *vcm.DeadlineError
		lost := false
		if d.lease != nil && errors.As(err, &de) {
			for _, dev := range de.Blamed {
				lost = d.markDown(dev, ": "+de.Error()) || lost
			}
		}
		if !lost || replays >= d.maxReplays {
			if d.failingOver { // failing before any re-lease; capture what there is
				d.tel.CaptureBundle("session_failed", d.fw.FramesProcessed(), err.Error())
			}
			return nil, err
		}
	}
}

// pickUpLease re-targets the framework when the pool re-partitioned since
// the last window.
func (d *Driver) pickUpLease() error {
	if d.lease == nil {
		return nil
	}
	sub, epoch := d.lease.Snapshot()
	if epoch == d.epoch {
		return nil
	}
	if sub == nil {
		return errors.New("lease orphaned: device loss left no devices for this session")
	}
	if err := d.fw.SetPlatform(sub); err != nil {
		return err
	}
	d.pl, d.epoch, d.names = sub, epoch, sub.DeviceNames()
	d.repart++
	frame := d.fw.FramesProcessed()
	d.tel.Incident("re_lease", frame, -1, fmt.Sprintf("picked up epoch %d: %v", epoch, d.names))
	if d.failingOver {
		d.failingOver = false
		d.tel.CaptureBundle("pool_failover", frame,
			fmt.Sprintf("failover complete: session re-leased onto %v at epoch %d", d.names, epoch))
	}
	if d.hooks.Repartitioned != nil {
		d.hooks.Repartitioned()
	}
	return nil
}

// markDown takes the framework's device dev out of the pool (under the
// parent platform's numbering) and reports whether the pool let it go.
func (d *Driver) markDown(dev int, why string) bool {
	parent := dev
	if dev < len(d.pl.BaseIndex) {
		parent = d.pl.BaseIndex[dev]
	}
	if !d.lease.Pool().MarkDown(parent) {
		return false
	}
	d.failingOver = true
	d.tel.Incident("device_down", d.fw.FramesProcessed(), parent,
		fmt.Sprintf("pool removed device %d (%s)%s", parent, d.pl.Dev(dev).Name, why))
	if d.hooks.DeviceLost != nil {
		d.hooks.DeviceLost()
	}
	return true
}
