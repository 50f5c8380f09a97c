package main

import (
	"time"

	"feves"
)

// encodeSize fixes an encode workload: the platform, the coding
// parameters, the looped clip and the traced replay length.
type encodeSize struct {
	platform string
	cfg      feves.Config
	// clipFrames is the length of the generated clip, a whole number of
	// GOPs, so every pass over it opens on an IDR and codes identically.
	// The timed window encodes at least one pass and then whole frames
	// until the window closes.
	clipFrames int
	// replayFrames is the prefix the traced pass drives through each
	// surface at -seconds 10; simSteps the control-path probe length.
	replayFrames int
	simSteps     int
}

var encodeCIF = encodeSize{
	platform: "syshk",
	cfg: feves.Config{Width: 352, Height: 288, SearchArea: 32, RefFrames: 1,
		IntraPeriod: 30, Checksum: true},
	clipFrames: 30, replayFrames: 20, simSteps: 2000,
}

var encode720p = encodeSize{
	platform: "syshk",
	cfg: feves.Config{Width: 1280, Height: 720, SearchArea: 32, RefFrames: 1,
		FastME: "diamond", ArithmeticCoding: true, Slices: 2,
		IntraPeriod: 25, Checksum: true},
	clipFrames: 25, replayFrames: 8, simSteps: 2000,
}

type encodeInst struct {
	sz   encodeSize
	clip [][]byte
	enc  *feves.Encoder

	frames      int
	firstPass   []feves.FrameReport
	firstPassAt int // bitstream bytes when the first pass over the clip ended
}

func setupEncode(sz encodeSize, seed uint64) (instance, error) {
	in := &encodeInst{sz: sz, clip: clip(sz.cfg.Width, sz.cfg.Height, sz.clipFrames, seed)}
	// Warm-up on a throw-away encoder (one intra, one inter frame) so the
	// measured encoder starts a clean sequence.
	warm, err := feves.NewEncoder(sz.cfg, publicPlatform(sz.platform))
	if err != nil {
		return nil, err
	}
	for i := 0; i < 2 && i < len(in.clip); i++ {
		if _, err := warm.EncodeYUV(in.clip[i]); err != nil {
			return nil, err
		}
	}
	in.enc, err = feves.NewEncoder(sz.cfg, publicPlatform(sz.platform))
	return in, err
}

func (in *encodeInst) close() {}

func (in *encodeInst) measure(win time.Duration) measurement {
	var m measurement
	m.wall, m.allocated = window(func() {
		start := time.Now()
		for i := 0; i < len(in.clip) || time.Since(start) < win; i++ {
			t0 := time.Now()
			r, err := in.enc.EncodeYUV(in.clip[i%len(in.clip)])
			d := time.Since(t0)
			m.attempted++
			if err != nil {
				m.failed++
				return // the encoder's sequence state is gone
			}
			m.opMs = append(m.opMs, ms(d))
			m.frames++
			if i < len(in.clip) {
				in.firstPass = append(in.firstPass, r)
			}
			if i == len(in.clip)-1 {
				in.firstPassAt = len(in.enc.Bitstream())
			}
		}
	})
	in.frames = m.frames
	return m
}

// verify decodes the whole stream (CRC trailers on) and digests the first
// pass, which is the same bytes however many frames the window reached.
func (in *encodeInst) verify() (int, string) {
	stream := in.enc.Bitstream()
	n, err := feves.Verify(stream)
	wrong := in.frames - n
	if err != nil && wrong == 0 {
		wrong = 1
	}
	return wrong, digest(stream[:in.firstPassAt])
}

func (in *encodeInst) layers(win time.Duration, tr *tracer, m metricSet) error {
	sz := in.sz
	surf, err := codecSurfaces(sz.platform, sz.cfg, in.clip, scaleCount(sz.replayFrames, win), tr, m)
	if err != nil {
		return err
	}
	m.set("trace.overhead_ratio", surf.stagedWall.Seconds()/surf.serialWall.Seconds(), 0)
	ctl, err := controlProbes([]simSpec{{platform: sz.platform, cfg: sz.cfg}}, sz.simSteps, tr, m)
	if err != nil {
		return err
	}
	m.set("core.control_share", ctl.stepUs/1e3/surf.frameMsP50, sz.simSteps)
	m.set("trace.spans", float64(tr.count()), 0)
	return nil
}

// scaleCount scales a count sized for a 10-second pass to the window.
func scaleCount(n int, win time.Duration) int {
	k := int(float64(n) * win.Seconds() / 10)
	if k < 3 {
		k = 3
	}
	return k
}
