package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"

	"feves/internal/telemetry"
)

// Handler returns the service's HTTP API:
//
//	POST   /jobs               submit a JobSpec, 202 + JobStatus
//	GET    /jobs               list every job's JobStatus
//	GET    /jobs/{id}          one job's JobStatus
//	DELETE /jobs/{id}          cancel (a running session stops between frames)
//	GET    /jobs/{id}/results  stream per-frame FrameResults as JSONL
//	GET    /jobs/{id}/bitstream coded stream of a finished encode job
//	GET    /healthz            200 while serving, 503 while draining
//	GET    /metrics            Prometheus text exposition (when telemetry is on)
//	GET    /debug/state        live topology: pool, leases, health, queue, drain
//	GET    /debug/flight       flight recorder: live ring + captured bundles
//	GET    /debug/trace        Perfetto snapshot of the live trace ring
//	GET    /debug/pprof/...    net/http/pprof profiles
//
// Submission failures map to the service's backpressure semantics: a full
// queue or a draining server answer 503 with a Retry-After hint, a
// malformed spec answers 400.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/results", s.handleResults)
	mux.HandleFunc("GET /jobs/{id}/bitstream", s.handleBitstream)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /debug/state", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, s.State())
	})
	MountDebug(mux, s.cfg.Telemetry)
	return mux
}

// MountDebug mounts the telemetry endpoints every HTTP surface shares:
// /metrics (when tel has a registry), /debug/flight (the flight recorder's
// frame ring, incident ring and captured post-mortem bundles),
// /debug/trace (a Perfetto snapshot of the live trace ring — load it
// straight into ui.perfetto.dev) and the net/http/pprof profiles. A sink
// without a flight recorder or trace writer answers 404 there.
func MountDebug(mux *http.ServeMux, tel *telemetry.Telemetry) {
	if tel != nil && tel.Metrics != nil {
		mux.Handle("GET /metrics", tel.Metrics.Handler())
	}
	mux.HandleFunc("GET /debug/flight", func(w http.ResponseWriter, r *http.Request) {
		if tel == nil || tel.Flight == nil {
			WriteError(w, http.StatusNotFound, "flight recorder not enabled")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_ = tel.Flight.WriteDoc(w) // a failed write means the client left
	})
	mux.HandleFunc("GET /debug/trace", func(w http.ResponseWriter, r *http.Request) {
		if tel == nil || tel.Trace == nil {
			WriteError(w, http.StatusNotFound, "trace writer not enabled")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_ = tel.Trace.Export(w) // a failed write means the client left
	})
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// WriteJSON answers with v as a JSON document.
func WriteJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// WriteError answers with a JSON {"error": msg} document.
func WriteError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, map[string]string{"error": msg})
}

// MaxSpecBytes bounds the body of a submitted job or stream spec. Specs
// carry their YUV input inline (base64), so the bound is what keeps one
// request from exhausting the server's memory: 64 MiB holds about
// thirty-five 720p frames. Longer inputs are split by the client.
const MaxSpecBytes = 64 << 20

// DecodeSpec reads a submitted JSON spec of at most MaxSpecBytes into v. On
// failure it has answered — 413 for an oversized body, 400 for malformed
// JSON — and returns false.
func DecodeSpec(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxSpecBytes)).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		WriteError(w, http.StatusRequestEntityTooLarge,
			"request body exceeds "+strconv.Itoa(MaxSpecBytes)+" bytes")
	case err != nil:
		WriteError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
	}
	return err == nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if !DecodeSpec(w, r, &spec) {
		return
	}
	job, err := s.Submit(spec)
	if err != nil {
		WriteAdmissionError(w, err, s.Backlog())
		return
	}
	WriteJSON(w, http.StatusAccepted, job.Status())
}

// WriteAdmissionError answers a failed submission: 503 with a Retry-After
// derived from the backlog for ErrBusy, ErrDraining (only it gets the long
// drain-horizon hint) and any of also, 400 for the rest — malformed specs.
func WriteAdmissionError(w http.ResponseWriter, err error, backlog int, also ...error) {
	for _, retryable := range append(also, ErrBusy, ErrDraining) {
		if errors.Is(err, retryable) {
			w.Header().Set("Retry-After",
				strconv.Itoa(RetryAfterSeconds(backlog, errors.Is(err, ErrDraining))))
			WriteError(w, http.StatusServiceUnavailable, err.Error())
			return
		}
	}
	WriteError(w, http.StatusBadRequest, err.Error())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	WriteJSON(w, http.StatusOK, out)
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	job, ok := s.Job(id)
	if !ok {
		WriteError(w, http.StatusNotFound, "unknown job "+id)
		return nil, false
	}
	return job, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if job, ok := s.job(w, r); ok {
		WriteJSON(w, http.StatusOK, job.Status())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	job.Cancel()
	WriteJSON(w, http.StatusOK, job.Status())
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	if job, ok := s.job(w, r); ok {
		StreamResults(w, r, job)
	}
}

// StreamResults streams the job's per-frame results as JSONL, one
// FrameResult per line, flushing after each batch so tenants can follow a
// running session live. The stream ends when the job reaches a terminal
// state or the client disconnects.
func StreamResults(w http.ResponseWriter, r *http.Request, job *Job) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	n := 0
	for {
		results, done := job.Next(n)
		for _, fr := range results {
			if enc.Encode(fr) != nil {
				return // client gone
			}
		}
		n += len(results)
		if flusher != nil {
			flusher.Flush()
		}
		if done {
			return
		}
		select {
		case <-r.Context().Done():
			return
		default:
		}
	}
}

func (s *Server) handleBitstream(w http.ResponseWriter, r *http.Request) {
	if job, ok := s.job(w, r); ok {
		st := job.Status()
		WriteBitstream(w, "job", st.Mode, st.Status, job.Bitstream)
	}
}

// WriteBitstream answers a bitstream request for a job or stream (kind
// names which in the error text) of the given mode and state: 400 unless
// it encodes, 409 until it is done, then the coded stream.
func WriteBitstream(w http.ResponseWriter, kind, mode string, st Status, bitstream func() []byte) {
	if mode != ModeEncode {
		WriteError(w, http.StatusBadRequest, kind+" is not an encode "+kind)
		return
	}
	if st != StatusDone {
		WriteError(w, http.StatusConflict,
			"bitstream not available: "+kind+" is "+strings.ToLower(string(st)))
		return
	}
	w.Header().Set("Content-Type", "video/h264")
	w.WriteHeader(http.StatusOK)
	w.Write(bitstream())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		w.Header().Set("Retry-After", strconv.Itoa(RetryAfterSeconds(s.Backlog(), true)))
		WriteError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	WriteJSON(w, http.StatusOK, map[string]interface{}{
		"status":   "ok",
		"sessions": s.pool.Sessions(),
		"capacity": s.pool.Capacity(),
		"up":       s.pool.UpDevices(),
	})
}

// Backlog returns the number of jobs ahead of a new submission — queued
// plus running — the live load figure RetryAfterSeconds turns into a
// Retry-After hint. Safe to call concurrently.
func (s *Server) Backlog() int { return len(s.queue) + len(s.slots) }

// Load returns the server's live routing load: the summed remaining
// weight (frame rows × frames still to encode) of every non-terminal job,
// queued or running. This is the queue-aware figure the fleet router
// folds into its per-node cap rows — a deep or heavy admission queue
// reads as high load, and the figure shrinks as sessions stream results.
// Safe to call concurrently.
func (s *Server) Load() float64 {
	var total float64
	for _, j := range s.Jobs() {
		total += j.remainingWeight()
	}
	return total
}

// RetryAfterSeconds turns a backlog depth into the Retry-After hint of a
// 503 response. A merely busy server clears roughly one queued job per
// session-slot turnover, so the hint grows with the number of jobs ahead
// (queued plus running) instead of a constant "1". A draining server never
// accepts again; its hint is the longer drain horizon, steering
// well-behaved clients away until a load balancer has rotated the replica
// out. The fleet coordinator's admission control shares this helper (with
// the cluster-wide backlog) so single-node and fleet 503s advertise
// consistent estimates.
func RetryAfterSeconds(ahead int, draining bool) int {
	secs, floor := ahead, 1
	if draining {
		secs, floor = 2*ahead, 5
	}
	if secs < floor {
		secs = floor
	}
	if secs > 300 {
		secs = 300
	}
	return secs
}
