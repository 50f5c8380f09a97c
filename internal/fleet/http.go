package fleet

import (
	"net/http"
	"strconv"

	"feves/internal/serve"
)

// Handler returns the coordinator's HTTP API — the cluster-wide analogue
// of serve.Handler:
//
//	POST   /jobs                      admit a serve.JobSpec as a one-shard stream, 202 + stream status
//	GET    /jobs                      list every job on every node (shard jobs included)
//	GET    /jobs/{node}/{id}          one node-local job's status
//	DELETE /jobs/{node}/{id}          cancel a node-local job (and the stream it serves)
//	GET    /jobs/{node}/{id}/results  stream per-frame results as JSONL
//	GET    /jobs/{node}/{id}/bitstream coded stream of a finished encode job
//	POST   /streams                   submit a StreamSpec (GOP-sharded), 202 + status
//	GET    /streams                   list every stream's status
//	GET    /streams/{id}              one stream's status
//	DELETE /streams/{id}              cancel a stream (all shards)
//	GET    /streams/{id}/bitstream    reassembled stream of a finished encode stream
//	GET    /healthz                   200 while serving, 503 while draining
//	GET    /metrics                   Prometheus text exposition (shared registry)
//	GET    /debug/state               cluster topology: nodes, streams, router LP
//	GET    /debug/flight              shared flight recorder (node-attributed)
//	GET    /debug/trace               shared Perfetto ring (node-qualified lanes)
//	GET    /debug/pprof/...           net/http/pprof profiles
//
// Admission 503s reuse serve.RetryAfterSeconds with the cluster-wide
// backlog, so fleet and single-node clients see consistent hints.
func (f *Fleet) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", f.handleSubmitJob)
	mux.HandleFunc("GET /jobs", f.handleListJobs)
	mux.HandleFunc("GET /jobs/{node}/{id}", f.handleJobStatus)
	mux.HandleFunc("DELETE /jobs/{node}/{id}", f.handleJobCancel)
	mux.HandleFunc("GET /jobs/{node}/{id}/results", f.handleJobResults)
	mux.HandleFunc("GET /jobs/{node}/{id}/bitstream", f.handleJobBitstream)
	mux.HandleFunc("POST /streams", f.handleSubmitStream)
	mux.HandleFunc("GET /streams", f.handleListStreams)
	mux.HandleFunc("GET /streams/{id}", f.handleStreamStatus)
	mux.HandleFunc("DELETE /streams/{id}", f.handleStreamCancel)
	mux.HandleFunc("GET /streams/{id}/bitstream", f.handleStreamBitstream)
	mux.HandleFunc("GET /healthz", f.handleHealth)
	mux.HandleFunc("GET /debug/state", func(w http.ResponseWriter, r *http.Request) {
		serve.WriteJSON(w, http.StatusOK, f.State())
	})
	serve.MountDebug(mux, f.tel)
	return mux
}

// writeAdmissionError answers as a single node would, ErrNoNodes — the
// fleet between nodes — counting as busy.
func (f *Fleet) writeAdmissionError(w http.ResponseWriter, err error) {
	serve.WriteAdmissionError(w, err, f.Backlog(), ErrNoNodes)
}

// fleetJobStatus wraps a node-local job status with its node label.
type fleetJobStatus struct {
	Node string `json:"node"`
	serve.JobStatus
}

func (f *Fleet) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	var spec serve.JobSpec
	if !serve.DecodeSpec(w, r, &spec) {
		return
	}
	st, err := f.Submit(spec)
	if err != nil {
		f.writeAdmissionError(w, err)
		return
	}
	serve.WriteJSON(w, http.StatusAccepted, st.Status())
}

func (f *Fleet) handleListJobs(w http.ResponseWriter, r *http.Request) {
	refs := f.Jobs()
	out := make([]fleetJobStatus, len(refs))
	for i, ref := range refs {
		out[i] = fleetJobStatus{Node: ref.Node, JobStatus: ref.Job.Status()}
	}
	serve.WriteJSON(w, http.StatusOK, out)
}

func (f *Fleet) jobRef(w http.ResponseWriter, r *http.Request) (JobRef, bool) {
	node, id := r.PathValue("node"), r.PathValue("id")
	ref, ok := f.Job(node, id)
	if !ok {
		serve.WriteError(w, http.StatusNotFound, "unknown job "+node+"/"+id)
		return JobRef{}, false
	}
	return ref, true
}

func (f *Fleet) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	if ref, ok := f.jobRef(w, r); ok {
		serve.WriteJSON(w, http.StatusOK, fleetJobStatus{Node: ref.Node, JobStatus: ref.Job.Status()})
	}
}

func (f *Fleet) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	ref, ok := f.jobRef(w, r)
	if !ok {
		return
	}
	ref.Job.Cancel()
	serve.WriteJSON(w, http.StatusOK, fleetJobStatus{Node: ref.Node, JobStatus: ref.Job.Status()})
}

// handleJobResults streams per-frame results as JSONL through the
// node-local streamer, so clients need not care where the job landed.
func (f *Fleet) handleJobResults(w http.ResponseWriter, r *http.Request) {
	if ref, ok := f.jobRef(w, r); ok {
		serve.StreamResults(w, r, ref.Job)
	}
}

func (f *Fleet) handleJobBitstream(w http.ResponseWriter, r *http.Request) {
	if ref, ok := f.jobRef(w, r); ok {
		st := ref.Job.Status()
		serve.WriteBitstream(w, "job", st.Mode, st.Status, ref.Job.Bitstream)
	}
}

func (f *Fleet) handleSubmitStream(w http.ResponseWriter, r *http.Request) {
	var spec StreamSpec
	if !serve.DecodeSpec(w, r, &spec) {
		return
	}
	st, err := f.SubmitStream(spec)
	if err != nil {
		f.writeAdmissionError(w, err)
		return
	}
	serve.WriteJSON(w, http.StatusAccepted, st.Status())
}

func (f *Fleet) handleListStreams(w http.ResponseWriter, r *http.Request) {
	streams := f.Streams()
	out := make([]StreamStatus, len(streams))
	for i, st := range streams {
		out[i] = st.Status()
	}
	serve.WriteJSON(w, http.StatusOK, out)
}

func (f *Fleet) stream(w http.ResponseWriter, r *http.Request) (*Stream, bool) {
	id := r.PathValue("id")
	st, ok := f.Stream(id)
	if !ok {
		serve.WriteError(w, http.StatusNotFound, "unknown stream "+id)
		return nil, false
	}
	return st, true
}

func (f *Fleet) handleStreamStatus(w http.ResponseWriter, r *http.Request) {
	if st, ok := f.stream(w, r); ok {
		serve.WriteJSON(w, http.StatusOK, st.Status())
	}
}

func (f *Fleet) handleStreamCancel(w http.ResponseWriter, r *http.Request) {
	st, ok := f.stream(w, r)
	if !ok {
		return
	}
	st.Cancel()
	serve.WriteJSON(w, http.StatusOK, st.Status())
}

func (f *Fleet) handleStreamBitstream(w http.ResponseWriter, r *http.Request) {
	if st, ok := f.stream(w, r); ok {
		doc := st.Status()
		serve.WriteBitstream(w, "stream", doc.Mode, doc.Status, st.Bitstream)
	}
}

func (f *Fleet) handleHealth(w http.ResponseWriter, r *http.Request) {
	if f.Draining() {
		w.Header().Set("Retry-After", strconv.Itoa(serve.RetryAfterSeconds(f.Backlog(), true)))
		serve.WriteError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	f.mu.Lock()
	alive := len(f.aliveLocked())
	total := len(f.nodes)
	clock := f.clock
	f.mu.Unlock()
	serve.WriteJSON(w, http.StatusOK, map[string]interface{}{
		"status": "ok",
		"nodes":  total,
		"alive":  alive,
		"clock":  clock,
	})
}
