package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

	"pbrouter/internal/serve"
)

// Handler returns the coordinator's HTTP API, route-compatible with
// spsd's job surface so spsload and scripts work against either:
//
//	POST   /jobs              submit a job spec, 202 + status
//	GET    /jobs              list every job's status
//	GET    /jobs/{id}         one job's status
//	DELETE /jobs/{id}         cancel a job
//	GET    /jobs/{id}/result  the finished job's result JSON, verbatim
//	GET    /jobs/{id}/stream  NDJSON event stream (follows until done)
//	GET    /fleet             backend fleet report (Info)
//	GET    /healthz           liveness (503 once draining)
//	GET    /metrics           Prometheus text format
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", c.handleSubmit)
	mux.HandleFunc("GET /jobs", c.handleList)
	mux.HandleFunc("GET /jobs/{id}", c.handleStatus)
	mux.HandleFunc("DELETE /jobs/{id}", c.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/result", c.handleResult)
	mux.HandleFunc("GET /jobs/{id}/stream", c.handleStream)
	mux.HandleFunc("GET /fleet", c.handleFleet)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	return mux
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// apiError is the error envelope every non-2xx JSON response uses.
type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, apiError{Error: msg})
}

// maxBodyBytes caps a submitted spec's body at spsd's 1 MiB, so a
// spec either daemon accepts the other does too.
const maxBodyBytes = 1 << 20

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec serve.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, "bad job spec: "+err.Error())
		return
	}
	j, err := c.Submit(spec)
	switch {
	case err == nil:
		st, _ := c.StatusOf(j.ID)
		writeJSON(w, http.StatusAccepted, st)
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusTooManyRequests, err.Error())
	default:
		writeError(w, http.StatusBadRequest, err.Error())
	}
}

func (c *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Statuses())
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := c.StatusOf(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (c *Coordinator) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := c.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := c.Job(id); !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	res, ok := c.Result(id)
	if !ok {
		writeError(w, http.StatusConflict, "job has no result yet")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(res)
}

// handleStream serves the job's NDJSON event stream: full backlog
// first, then live events until the job goes terminal or the client
// disconnects.
func (c *Coordinator) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := c.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	i := 0
	for {
		lines, done, wait := j.stream.next(i)
		for _, line := range lines {
			if _, err := w.Write(append(line, '\n')); err != nil {
				return
			}
		}
		i += len(lines)
		if len(lines) > 0 {
			if flusher != nil {
				flusher.Flush()
			}
			continue
		}
		if done {
			return
		}
		select {
		case <-wait:
		case <-r.Context().Done():
			return
		}
	}
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	h := struct {
		Status   string `json:"status"`
		Draining bool   `json:"draining"`
		Jobs     int    `json:"jobs"`
	}{Status: "ok", Draining: c.draining, Jobs: len(c.jobs)}
	c.mu.Unlock()
	code := http.StatusOK
	if h.Draining {
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

// BackendStatus is one backend's dispatch state in the fleet report.
type BackendStatus struct {
	URL                string  `json:"url"`
	Alive              bool    `json:"alive"`
	Inflight           int     `json:"inflight"`
	LatencyEWMASeconds float64 `json:"latency_ewma_seconds"`
	Picks              int     `json:"picks"`
	UnitsOK            int     `json:"units_ok"`
	UnitsErr           int     `json:"units_err"`
}

// Info is the GET /fleet report: coordinator identity plus every
// backend's live dispatch state.
type Info struct {
	Service        string          `json:"service"` // "spsfleet"
	Scheduler      string          `json:"scheduler"`
	Draining       bool            `json:"draining"`
	UptimeSeconds  float64         `json:"uptime_seconds"`
	UnitRetries    int             `json:"unit_retries"`
	DuplicateUnits int             `json:"duplicate_units"`
	Backends       []BackendStatus `json:"backends"`
}

// FleetInfo snapshots the coordinator's fleet state.
func (c *Coordinator) FleetInfo() Info {
	c.mu.Lock()
	defer c.mu.Unlock()
	info := Info{
		Service:        "spsfleet",
		Scheduler:      c.sched.Name(),
		Draining:       c.draining,
		UptimeSeconds:  time.Since(c.started).Seconds(),
		UnitRetries:    c.retries,
		DuplicateUnits: c.duplicates,
	}
	for _, b := range c.backends {
		info.Backends = append(info.Backends, BackendStatus{
			URL:                b.url,
			Alive:              b.alive,
			Inflight:           b.inflight,
			LatencyEWMASeconds: b.latency,
			Picks:              b.picks,
			UnitsOK:            b.unitsOK,
			UnitsErr:           b.unitsErr,
		})
	}
	return info
}

func (c *Coordinator) handleFleet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.FleetInfo())
}

// handleMetrics renders coordinator metrics in the Prometheus text
// exposition format: the spsd-shaped job metrics under the spsfleet_
// prefix, plus per-backend dispatch gauges and counters.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	queueDepth := len(c.queue)
	queueCap := cap(c.queue)
	running := c.running
	states := make(map[serve.State]int)
	for _, j := range c.jobs {
		states[j.State]++
	}
	latN := c.latency.N()
	latSum := c.latencySum
	quantiles := map[string]float64{}
	if latN > 0 {
		for _, q := range []float64{0.5, 0.95, 0.99} {
			quantiles[fmt.Sprintf("%g", q)] = c.latency.Percentile(q)
		}
	}
	retries := c.retries
	duplicates := c.duplicates
	uptime := time.Since(c.started).Seconds()
	type bsnap struct {
		url      string
		alive    bool
		inflight int
		latency  float64
		picks    int
		unitsOK  int
		unitsErr int
	}
	var bs []bsnap
	for _, b := range c.backends {
		bs = append(bs, bsnap{b.url, b.alive, b.inflight, b.latency, b.picks, b.unitsOK, b.unitsErr})
	}
	c.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "# HELP spsfleet_up Whether the coordinator is serving.\n")
	fmt.Fprintf(w, "# TYPE spsfleet_up gauge\n")
	fmt.Fprintf(w, "spsfleet_up 1\n")
	fmt.Fprintf(w, "# HELP spsfleet_uptime_seconds Coordinator uptime.\n")
	fmt.Fprintf(w, "# TYPE spsfleet_uptime_seconds counter\n")
	fmt.Fprintf(w, "spsfleet_uptime_seconds %g\n", uptime)
	fmt.Fprintf(w, "# HELP spsfleet_queue_depth Jobs admitted but not yet running.\n")
	fmt.Fprintf(w, "# TYPE spsfleet_queue_depth gauge\n")
	fmt.Fprintf(w, "spsfleet_queue_depth %d\n", queueDepth)
	fmt.Fprintf(w, "# HELP spsfleet_queue_capacity Admission queue bound.\n")
	fmt.Fprintf(w, "# TYPE spsfleet_queue_capacity gauge\n")
	fmt.Fprintf(w, "spsfleet_queue_capacity %d\n", queueCap)
	fmt.Fprintf(w, "# HELP spsfleet_jobs_inflight Jobs currently executing.\n")
	fmt.Fprintf(w, "# TYPE spsfleet_jobs_inflight gauge\n")
	fmt.Fprintf(w, "spsfleet_jobs_inflight %d\n", running)
	fmt.Fprintf(w, "# HELP spsfleet_jobs_total Jobs by lifecycle state.\n")
	fmt.Fprintf(w, "# TYPE spsfleet_jobs_total gauge\n")
	for _, st := range []serve.State{serve.StateQueued, serve.StateRunning,
		serve.StateDone, serve.StateFailed, serve.StateCancelled} {
		fmt.Fprintf(w, "spsfleet_jobs_total{state=%q} %d\n", st, states[st])
	}
	fmt.Fprintf(w, "# HELP spsfleet_job_latency_seconds Submit-to-complete latency of finished jobs.\n")
	fmt.Fprintf(w, "# TYPE spsfleet_job_latency_seconds summary\n")
	qs := make([]string, 0, len(quantiles))
	for q := range quantiles {
		qs = append(qs, q)
	}
	sort.Strings(qs)
	for _, q := range qs {
		fmt.Fprintf(w, "spsfleet_job_latency_seconds{quantile=%q} %g\n", q, quantiles[q])
	}
	fmt.Fprintf(w, "spsfleet_job_latency_seconds_sum %g\n", latSum)
	fmt.Fprintf(w, "spsfleet_job_latency_seconds_count %d\n", latN)
	fmt.Fprintf(w, "# HELP spsfleet_unit_retries_total Unit dispatches retried after transport failure.\n")
	fmt.Fprintf(w, "# TYPE spsfleet_unit_retries_total counter\n")
	fmt.Fprintf(w, "spsfleet_unit_retries_total %d\n", retries)
	fmt.Fprintf(w, "# HELP spsfleet_duplicate_units_total Units completed more than once by late retries.\n")
	fmt.Fprintf(w, "# TYPE spsfleet_duplicate_units_total counter\n")
	fmt.Fprintf(w, "spsfleet_duplicate_units_total %d\n", duplicates)
	fmt.Fprintf(w, "# HELP spsfleet_backend_up Whether the backend answers health probes.\n")
	fmt.Fprintf(w, "# TYPE spsfleet_backend_up gauge\n")
	for _, b := range bs {
		up := 0
		if b.alive {
			up = 1
		}
		fmt.Fprintf(w, "spsfleet_backend_up{backend=%q} %d\n", b.url, up)
	}
	fmt.Fprintf(w, "# HELP spsfleet_backend_inflight Units currently dispatched to the backend.\n")
	fmt.Fprintf(w, "# TYPE spsfleet_backend_inflight gauge\n")
	for _, b := range bs {
		fmt.Fprintf(w, "spsfleet_backend_inflight{backend=%q} %d\n", b.url, b.inflight)
	}
	fmt.Fprintf(w, "# HELP spsfleet_backend_latency_seconds Unit-latency EWMA per backend.\n")
	fmt.Fprintf(w, "# TYPE spsfleet_backend_latency_seconds gauge\n")
	for _, b := range bs {
		fmt.Fprintf(w, "spsfleet_backend_latency_seconds{backend=%q} %g\n", b.url, b.latency)
	}
	fmt.Fprintf(w, "# HELP spsfleet_backend_picks_total Scheduler picks per backend.\n")
	fmt.Fprintf(w, "# TYPE spsfleet_backend_picks_total counter\n")
	for _, b := range bs {
		fmt.Fprintf(w, "spsfleet_backend_picks_total{backend=%q} %d\n", b.url, b.picks)
	}
	fmt.Fprintf(w, "# HELP spsfleet_backend_units_total Unit dispatch outcomes per backend.\n")
	fmt.Fprintf(w, "# TYPE spsfleet_backend_units_total counter\n")
	for _, b := range bs {
		fmt.Fprintf(w, "spsfleet_backend_units_total{backend=%q,result=\"ok\"} %d\n", b.url, b.unitsOK)
		fmt.Fprintf(w, "spsfleet_backend_units_total{backend=%q,result=\"err\"} %d\n", b.url, b.unitsErr)
	}
}
