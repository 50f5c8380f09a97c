// Command feves-encode encodes video through the FEVES framework on a
// simulated heterogeneous platform, producing a real bitstream plus the
// per-frame timing of the collaborative schedule.
//
// Input is either raw planar YUV 4:2:0 (-in file) or a built-in synthetic
// sequence (-synthetic N). The output bitstream is this reproduction's own
// container, verifiable with the same tool (-verify).
//
// Examples:
//
//	feves-encode -w 640 -h 352 -synthetic 30 -platform syshk -o out.fvs
//	feves-encode -w 1920 -h 1088 -in video.yuv -sa 32 -rf 2 -o out.fvs
//	feves-encode -verify out.fvs
//
// Observability (see README §Observability): -metrics-addr serves a live
// Prometheus scrape, -events writes the JSONL event stream including the
// per-frame balancer audit, -perfetto writes the whole run's schedule as a
// Perfetto-loadable timeline:
//
//	feves-encode -synthetic 60 -metrics-addr :9090 -events run.jsonl -perfetto run.trace.json
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"feves"
	"feves/internal/h264"
	"feves/internal/h264/codec"
	"feves/internal/platforms"
	"feves/internal/teleflag"
	"feves/internal/video"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("feves-encode: ")
	var (
		width     = flag.Int("w", 640, "frame width (multiple of 16)")
		height    = flag.Int("h", 352, "frame height (multiple of 16)")
		in        = flag.String("in", "", "raw I420 input file ('' = synthetic)")
		synthetic = flag.Int("synthetic", 30, "synthetic frame count when -in is empty")
		seed      = flag.Uint64("seed", 1, "synthetic content seed")
		sa        = flag.Int("sa", 32, "search-area size in pixels (SAxSA)")
		rf        = flag.Int("rf", 1, "reference frames")
		iqp       = flag.Int("iqp", 27, "intra-frame QP")
		pqp       = flag.Int("pqp", 28, "inter-frame QP")
		platform  = flag.String("platform", "syshk", "platform: "+strings.Join(platforms.Names(), " "))
		balancer  = flag.String("balancer", "lp", "balancer: lp proportional equidistant me-offload")
		entropy   = flag.String("entropy", "vlc", "residual entropy backend: vlc arith")
		meAlgo    = flag.String("me", "full-search", "motion search: full-search three-step diamond")
		bitrate   = flag.Int("bpf", 0, "target bits per frame (0 = fixed QP)")
		checksum  = flag.Bool("crc", false, "append per-frame CRC-32 trailers")
		intraP    = flag.Int("intra-period", 0, "IDR refresh period (0 = IPPP)")
		sceneCut  = flag.Float64("scenecut", 0, "adaptive IDR threshold (0 = off)")
		slices    = flag.Int("slices", 1, "independently decodable slices per frame")
		preset    = flag.String("content", "medium", "synthetic content: low medium high toys tomatoes")
		out       = flag.String("o", "", "output bitstream file ('' = discard)")
		verify    = flag.String("verify", "", "verify a bitstream file and exit")
		check     = flag.Bool("check", false, "validate every frame's schedule against the Algorithm-2 invariants")
		faults    = flag.String("inject-faults", "",
			"deterministic fault spec (die:DEV@F stall:DEV@F[+K] slow:DEV@FxR[+K] chaos:SEEDxRATE, ';'-separated)")
		slack = flag.Float64("deadline-slack", 0,
			"arm autonomous failover: per-sync-point deadlines at LP prediction x slack (0 = off)")
		retries   = flag.Int("max-retries", 0, "failover attempts per frame (0 = default 3)")
		fparallel = flag.Bool("frame-parallel", false,
			"encode two inter frames in flight over dual reference chains")
	)
	tf := teleflag.Register()
	flag.Parse()

	if *verify != "" {
		if err := verifyStream(*verify, os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}

	pl, err := feves.LookupPlatform(*platform)
	if err != nil {
		log.Fatal(err)
	}
	if err := pl.InjectFaults(*faults); err != nil {
		log.Fatal(err)
	}
	obs, closeTelemetry, err := tf.Observer()
	if err != nil {
		log.Fatal(err)
	}
	cfg := feves.Config{
		Observer: obs,
		Width:    *width, Height: *height,
		SearchArea: *sa, RefFrames: *rf, IQP: *iqp, PQP: *pqp,
		ArithmeticCoding:   *entropy == "arith",
		FastME:             *meAlgo,
		TargetBitsPerFrame: *bitrate,
		Checksum:           *checksum,
		IntraPeriod:        *intraP,
		SceneCutThreshold:  *sceneCut,
		Slices:             *slices,
		CheckSchedules:     *check,
		DeadlineSlack:      *slack,
		MaxFrameRetries:    *retries,
		FrameParallel:      *fparallel,
	}
	if *entropy != "vlc" && *entropy != "arith" {
		log.Fatalf("unknown entropy backend %q", *entropy)
	}
	switch *balancer {
	case "lp":
	case "proportional":
		cfg.Balancer = feves.BalancerProportional
	case "equidistant":
		cfg.Balancer = feves.BalancerEquidistant
	case "me-offload":
		cfg.Balancer = feves.BalancerMEOffload
	default:
		log.Fatalf("unknown balancer %q", *balancer)
	}

	var src video.Source
	if *in == "" {
		switch *preset {
		case "low":
			src = video.NewSyntheticClass(*width, *height, *synthetic, *seed, video.LowMotion)
		case "medium":
			src = video.NewSynthetic(*width, *height, *synthetic, *seed)
		case "high":
			src = video.NewSyntheticClass(*width, *height, *synthetic, *seed, video.HighMotion)
		case "toys":
			src = video.ToysAndCalendar(*width, *height, *synthetic)
		case "tomatoes":
			src = video.RollingTomatoes(*width, *height, *synthetic)
		default:
			log.Fatalf("unknown content preset %q", *preset)
		}
	} else {
		f, err := os.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		src, err = video.NewYUVReader(f, *width, *height)
		if err != nil {
			log.Fatal(err)
		}
	}

	enc, err := feves.NewEncoder(cfg, pl)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("encoding on %s (%v), SA %dx%d, %d RF\n", pl.Name(), pl.Devices(), *sa, *sa, *rf)
	n := 0
	err = enc.EncodeSequence(func() ([]byte, error) {
		frame, err := src.Next()
		if err != nil {
			return nil, err
		}
		return frame.PackedYUV(), nil
	}, func(rep feves.FrameReport) {
		switch {
		case rep.Intra:
			fmt.Printf("frame %3d I %8d bits  PSNR-Y %5.2f dB\n", rep.Frame, rep.Bits, rep.PSNRY)
		case rep.PairSeconds > 0:
			fmt.Printf("frame %3d P %8d bits  PSNR-Y %5.2f dB  τtot %6.2f ms (%5.1f fps, pair c%d)  ME rows %v\n",
				rep.Frame, rep.Bits, rep.PSNRY, rep.Seconds*1e3, rep.FPS, rep.Chain, rep.MERows)
		default:
			fmt.Printf("frame %3d P %8d bits  PSNR-Y %5.2f dB  τtot %6.2f ms (%5.1f fps)  ME rows %v\n",
				rep.Frame, rep.Bits, rep.PSNRY, rep.Seconds*1e3, rep.FPS, rep.MERows)
		}
		n++
	})
	if err != nil {
		log.Fatal(err)
	}
	stream := enc.Bitstream()
	fmt.Printf("%d frames, %d bytes coded\n", n, len(stream))
	if *out != "" {
		if err := os.WriteFile(*out, stream, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if err := closeTelemetry(); err != nil {
		log.Fatal(err)
	}
}

// verifyStream decodes the bitstream file at path end to end and writes
// its summary to out. A stream that does not decode is an error naming how
// far decoding got: the sequence header, or the count of good frames.
func verifyStream(path string, out io.Writer) error {
	stream, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	si, err := codec.Inspect(stream)
	if si == nil {
		return fmt.Errorf("%s: corrupt header: %v", path, err)
	}
	if err != nil {
		return fmt.Errorf("%s: corrupt after %d frames: %v", path, len(si.Frames), err)
	}
	cfg := si.Config
	fmt.Fprintf(out, "%s: OK, %d frames, %dx%d, SA %dx%d, %d RF, QP {%d,%d}, entropy %s\n",
		path, len(si.Frames), cfg.Width, cfg.Height,
		2*cfg.SearchRange, 2*cfg.SearchRange, cfg.NumRF, cfg.IQP, cfg.PQP, cfg.Entropy)
	var iFrames int
	for _, fr := range si.Frames {
		if fr.Intra {
			iFrames++
		}
	}
	fmt.Fprintf(out, "coded: %d bits total (%.1f kbit/frame), %d intra / %d inter\n",
		si.TotalBits(), float64(si.TotalBits())/float64(len(si.Frames))/1000,
		iFrames, len(si.Frames)-iFrames)
	hist := si.ModeHistogram()
	fmt.Fprintf(out, "inter partition modes:")
	for m, c := range hist {
		if c > 0 {
			fmt.Fprintf(out, " %v:%d", h264.PartMode(m), c)
		}
	}
	fmt.Fprintln(out)
	return nil
}
