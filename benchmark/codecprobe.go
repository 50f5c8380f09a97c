package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"time"

	"feves"
	"feves/internal/core"
	"feves/internal/h264"
	"feves/internal/h264/codec"
	"feves/internal/h264/deblock"
	"feves/internal/h264/entropy"
	"feves/internal/h264/interp"
	"feves/internal/h264/mc"
	"feves/internal/h264/me"
	"feves/internal/h264/sme"
	"feves/internal/h264/transform"
	"feves/internal/platforms"
	"feves/internal/vcm"
)

// frameOut is the part of a frame's report the exact metrics need,
// whichever surface produced it.
type frameOut struct {
	seconds, pairSeconds float64
	bits                 int
	psnrY                float64
}

// exact summarizes frames: model throughput, rate and quality. These
// repeat exactly run to run for one seed.
func exact(frames []frameOut) (virtualFPS, bitsPerFrame, psnrY float64) {
	var tau, bits, psnr float64
	timed := 0
	for _, r := range frames {
		switch {
		case r.pairSeconds > 0:
			tau += r.pairSeconds / 2
			timed++
		case r.seconds > 0:
			tau += r.seconds
			timed++
		}
		bits += float64(r.bits)
		psnr += r.psnrY
	}
	if tau > 0 {
		virtualFPS = float64(timed) / tau
	}
	if n := float64(len(frames)); n > 0 {
		bitsPerFrame, psnrY = bits/n, psnr/n
	}
	return
}

func loadFrame(cc codec.Config, yuv []byte, poc int) (*h264.Frame, error) {
	f := h264.NewFrame(cc.Width, cc.Height)
	f.Poc = poc
	return f, f.LoadYUV(yuv)
}

// stagedReplay encodes the first n frames of the looped clip through
// codec.Encoder's staged API on the calling goroutine, one span per stage
// under one "frame" span per frame. It is EncodeFrame with one kernel
// worker, cut at the finest exported boundaries.
func stagedReplay(cc codec.Config, clip [][]byte, n int, tr *tracer) ([]byte, time.Duration, error) {
	cc.KernelWorkers = 0
	enc, err := codec.NewEncoder(cc)
	if err != nil {
		return nil, 0, err
	}
	rows := cc.MBRows()
	runtime.GC() // as window does for the untraced surfaces
	start := time.Now()
	for i := 0; i < n; i++ {
		id := strconv.Itoa(i)
		stage := func(name string, parent int, fn func()) {
			s := tr.begin(name, id, 0, parent)
			fn()
			tr.end(s)
		}
		fs := tr.begin("frame", id, 0, -1)
		var f *h264.Frame
		stage("video.load", fs, func() { f, err = loadFrame(cc, clip[i%len(clip)], i) })
		if err != nil {
			return nil, 0, err
		}
		if enc.ShouldIntra() {
			stage("intra", fs, func() { _, err = enc.EncodeIntraFrame(f) })
			if err != nil {
				return nil, 0, err
			}
		} else {
			var job *codec.FrameJob
			stage("codec.begin", fs, func() { job = enc.BeginFrame(f) })
			stage("me", fs, func() { enc.RunME(job, 0, rows) })
			stage("interp", fs, func() { enc.RunINT(job, 0, rows); enc.CompleteINT(job) })
			stage("sme", fs, func() { enc.RunSME(job, 0, rows) })
			stage("rstar", fs, func() { enc.RunRStar(job) })
		}
		tr.end(fs)
	}
	return enc.Bitstream(), time.Since(start), nil
}

// stageMetrics turns the staged replay's spans into per-stage costs and
// shares. Shares weigh intra and inter frames by the GOP structure (one
// intra per IntraPeriod), not by the replayed prefix, so a short prefix
// does not overstate the intra frame.
func stageMetrics(tr *tracer, cc codec.Config, m metricSet) {
	if tr == nil {
		return
	}
	spans := tr.spans
	sum := map[string]time.Duration{} // per stage name
	var intraFrame, interFrame, frameTotal, covered time.Duration
	var nIntra, nInter int
	kids := map[int][]int{}
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	for i, s := range spans {
		if s.Name != "frame" {
			continue
		}
		d := s.End - s.Start
		frameTotal += d
		covered += cover(spans, kids[i], s.Start, s.End)
		intra := false
		for _, k := range kids[i] {
			sum[spans[k].Name] += spans[k].End - spans[k].Start
			intra = intra || spans[k].Name == "intra"
		}
		if intra {
			intraFrame += d
			nIntra++
		} else {
			interFrame += d
			nInter++
		}
	}
	if nIntra == 0 || nInter == 0 {
		return
	}
	mbs := float64(cc.Width / h264.MBSize * cc.MBRows())
	gopInter := float64(cc.IntraPeriod - 1)
	if cc.IntraPeriod == 0 {
		gopInter = float64(nInter)
	}
	gop := float64(intraFrame)/float64(nIntra) + gopInter*float64(interFrame)/float64(nInter)
	for _, st := range []string{"me", "interp", "sme", "rstar"} {
		per := float64(sum[st]) / float64(nInter)
		m.set(st+".ns_per_mb", per/mbs, nInter)
		m.set(st+".share", gopInter*per/gop, nInter)
	}
	per := float64(sum["intra"]) / float64(nIntra)
	m.set("intra.ns_per_mb", per/mbs, nIntra)
	m.set("intra.share", per/gop, nIntra)
	m.set("codec.begin_us", float64(sum["codec.begin"])/float64(nInter)/1e3, nInter)
	m.set("video.load_us_per_frame", float64(sum["video.load"])/float64(nIntra+nInter)/1e3, nIntra+nInter)
	m.set("stage.cover_share", float64(covered)/float64(frameTotal), nIntra+nInter)
}

// surfaceRun is one pass of a prefix through one surface.
type surfaceRun struct {
	stream    []byte
	wall      time.Duration
	allocated uint64
	frameMs   []float64
	frames    []frameOut
	retries   int
}

// encodeFrames is the bare codec surface: codec.Encoder.EncodeFrame with
// the given number of kernel workers.
func encodeFrames(cc codec.Config, kernelWorkers int, clip [][]byte, n int) (surfaceRun, error) {
	cc.KernelWorkers = kernelWorkers
	enc, err := codec.NewEncoder(cc)
	if err != nil {
		return surfaceRun{}, err
	}
	var run surfaceRun
	run.wall, run.allocated = window(func() {
		for i := 0; i < n && err == nil; i++ {
			var f *h264.Frame
			if f, err = loadFrame(cc, clip[i%len(clip)], i); err == nil {
				_, err = enc.EncodeFrame(f)
			}
		}
	})
	run.stream = enc.Bitstream()
	return run, err
}

// frameworkFrames is the framework surface: core.Framework in functional
// mode, driven exactly as feves.Encoder.EncodeYUV drives it, built here so
// the retry counter is readable.
func frameworkFrames(platform string, cc codec.Config, clip [][]byte, n int) (surfaceRun, error) {
	pl, err := platforms.Lookup(platform)
	if err != nil {
		return surfaceRun{}, err
	}
	fw, err := core.New(core.Options{Platform: pl, Codec: cc, Mode: vcm.Functional})
	if err != nil {
		return surfaceRun{}, err
	}
	var run surfaceRun
	run.wall, run.allocated = window(func() {
		for i := 0; i < n && err == nil; i++ {
			t0 := time.Now()
			var f *h264.Frame
			if f, err = loadFrame(cc, clip[i%len(clip)], fw.FramesProcessed()); err != nil {
				return
			}
			var r core.Result
			if r, err = fw.EncodeNext(f); err != nil {
				return
			}
			run.frameMs = append(run.frameMs, ms(time.Since(t0)))
			run.frames = append(run.frames, frameOut{seconds: r.Timing.Tot,
				pairSeconds: r.Timing.PairMakespan, bits: r.Stats.Bits, psnrY: r.Stats.PSNRY})
		}
	})
	run.stream = fw.Bitstream()
	run.retries = fw.FrameRetries()
	return run, err
}

// surfaces is what codecSurfaces hands back for the caller's own ratios.
type surfaces struct {
	stagedWall, serialWall time.Duration
	frameMsP50             float64 // framework surface, wall per frame
}

// codecSurfaces drives the first n frames of the clip through four
// surfaces — codec.Encoder staged on one goroutine (traced), EncodeFrame
// with one and with two kernel workers, and the framework on the given
// platform — then through the decoder and the direct kernel probes. Layers
// that cannot be wrapped from outside are attributed by subtraction
// between surfaces, which is why each surface gets its own number. All
// four bitstreams must be byte-identical.
func codecSurfaces(platform string, cfg feves.Config, clip [][]byte, n int, tr *tracer, m metricSet) (surfaces, error) {
	cc := codecConfig(cfg)
	var out surfaces
	serial, err := encodeFrames(cc, 1, clip, n)
	if err != nil {
		return out, err
	}
	staged, stagedWall, err := stagedReplay(cc, clip, n, tr)
	if err != nil {
		return out, err
	}
	stageMetrics(tr, cc, m)
	workers, err := encodeFrames(cc, 2, clip, n)
	if err != nil {
		return out, err
	}
	fwRun, err := frameworkFrames(platform, cc, clip, n)
	if err != nil {
		return out, err
	}
	for name, s := range map[string][]byte{"serial": serial.stream, "workers": workers.stream, "framework": fwRun.stream} {
		if !bytes.Equal(s, staged) {
			return out, fmt.Errorf("%s bitstream differs from the staged codec.Encoder encode", name)
		}
	}
	m.set("codec.fps_serial", float64(n)/serial.wall.Seconds(), n)
	m.set("codec.fps_workers", float64(n)/workers.wall.Seconds(), n)
	m.set("codec.alloc_kb_per_frame", float64(workers.allocated)/1e3/float64(n), n)
	vfps, bits, psnr := exact(fwRun.frames)
	m.set("model.virtual_fps", vfps, 0)
	m.set("codec.bits_per_frame", bits, 0)
	m.set("codec.psnr_y_db", psnr, 0)
	m.set("core.tax_ratio", workers.wall.Seconds()/fwRun.wall.Seconds(), n)
	m.set("core.retries", float64(fwRun.retries), 0)

	decodeMs, err := decodeProbe(staged, n)
	if err != nil {
		return out, err
	}
	m.set("codec.decode_ms_per_frame", decodeMs, n)
	out = surfaces{stagedWall: stagedWall, serialWall: serial.wall, frameMsP50: median(fwRun.frameMs)}
	return out, kernelProbes(cc, clip, m)
}

// decodeProbe times a full decode of the stream and checks its length.
func decodeProbe(stream []byte, want int) (msPerFrame float64, err error) {
	start := time.Now()
	dec, err := codec.NewDecoder(stream)
	if err != nil {
		return 0, err
	}
	n := 0
	for {
		if _, err := dec.DecodeFrame(); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return 0, err
		}
		n++
	}
	if n != want {
		return 0, fmt.Errorf("decoded %d frames, want %d", n, want)
	}
	return ms(time.Since(start)) / float64(n), nil
}

// medianNs times fn reps times and returns the median call in ns.
func medianNs(reps int, fn func()) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		t0 := time.Now()
		fn()
		xs[i] = float64(time.Since(t0))
	}
	return median(xs)
}

// kernelProbes calls the R* kernels directly on the clip's first two
// frames: mode decision on a real SME field, transform+quantization and
// both entropy coders on the frame-difference residual, and the deblocking
// filter on the block state that residual implies.
func kernelProbes(cc codec.Config, clip [][]byte, m metricSet) error {
	ref, err := loadFrame(cc, clip[0], 0)
	if err != nil {
		return err
	}
	cur, err := loadFrame(cc, clip[1%len(clip)], 1)
	if err != nil {
		return err
	}
	mbw, mbh := cur.MBWidth(), cur.MBHeight()
	mbs := float64(mbw * mbh)
	dpb := h264.NewDPB(1)
	dpb.Push(ref)
	meField := h264.NewMVField(mbw, mbh, 1)
	me.SearchRowsAlgo(cc.MEAlgo, cur, dpb, cc.MECfg(), meField, 0, mbh)
	sf := interp.NewSubFrame(cc.Width, cc.Height)
	interp.Interpolate(ref.Y, sf)
	sf.ExtendBorders()
	smeField := h264.NewMVField(mbw, mbh, 1)
	sme.RefineRows(cur, []*interp.SubFrame{sf}, meField, smeField, 0, mbh)

	const reps = 5
	m.set("mc.decide_ns_per_mb",
		medianNs(reps, func() { mc.DecideFrame(smeField, cc.PQP) })/mbs, reps)

	// Luma residual of the co-located blocks, then its quantized levels.
	bw, bh := cc.Width/4, cc.Height/4
	resid := make([][16]int32, bw*bh)
	for by := 0; by < bh; by++ {
		for bx := 0; bx < bw; bx++ {
			b := &resid[by*bw+bx]
			for y := 0; y < 4; y++ {
				for x := 0; x < 4; x++ {
					b[y*4+x] = int32(cur.Y.At(bx*4+x, by*4+y)) - int32(ref.Y.At(bx*4+x, by*4+y))
				}
			}
		}
	}
	blocks := float64(len(resid))
	levels := make([][16]int32, len(resid))
	bi := deblock.NewBlockInfo(cc.Width, cc.Height)
	m.set("transform.ns_per_block", medianNs(reps, func() {
		copy(levels, resid)
		for i := range levels {
			bi.NZ[i] = transform.TQ(&levels[i], cc.PQP) > 0
			rec := levels[i]
			transform.TQInv(&rec, cc.PQP)
		}
	})/blocks, reps)
	m.set("entropy.vlc_ns_per_block", medianNs(reps, func() {
		w := entropy.NewBitWriter()
		for i := range levels {
			w.WriteBlock4x4(&levels[i])
		}
	})/blocks, reps)
	m.set("entropy.arith_ns_per_block", medianNs(reps, func() {
		e, rc := entropy.NewArithEncoder(), entropy.NewResidualContexts()
		for i := range levels {
			rc.EncodeBlock4x4(e, &levels[i])
		}
		e.Finish()
	})/blocks, reps)

	g := cur.Clone()
	xs := make([]float64, reps)
	for i := range xs {
		g.Y.CopyFrom(cur.Y)
		g.Cb.CopyFrom(cur.Cb)
		g.Cr.CopyFrom(cur.Cr)
		t0 := time.Now()
		deblock.FilterFrame(g, bi, cc.PQP)
		xs[i] = float64(time.Since(t0))
	}
	m.set("deblock.ns_per_mb", median(xs)/mbs, reps)
	return nil
}
