package daemon

// http.go is the daemon's serving surface: the artifact endpoints ride
// the published Rendered snapshot (one atomic load per request, no
// study locks), ingest endpoints go through the serialized mutator,
// and the lifecycle is a drain that stops ingest, finishes in-flight
// work, and only then releases the listener.
//
// Endpoints:
//
//	GET  /healthz                     liveness + study size
//	GET  /status                      size, seq, per-artifact state
//	GET  /artifacts                   artifact index
//	GET  /artifacts/{id}?format=json  one artifact (json default, tsv)
//	POST /ingest/month                {"month": 3} or {"month": "2020-05"}
//	POST /ingest/snapshot             {"time": "2020-06-17T12:00:00Z"}

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/report"
)

// Server is a running HTTP front end over one Daemon.
type Server struct {
	d    *Daemon
	srv  *http.Server
	lis  net.Listener
	done chan error // Serve's exit, consumed by Shutdown
}

// The edge's limits. A request is a line, a few headers and at most a
// one-line JSON object, so a peer that has not finished its header in
// readHeaderTimeout, or its body in readTimeout, is holding a
// connection rather than using it, and an ingest body past
// maxIngestBody is refused unread. There is no write timeout: an ingest
// reply waits for the recompute it triggered.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	maxIngestBody     = 64 << 10
)

// Serve starts the HTTP front end on addr ("127.0.0.1:0" for an
// ephemeral port) and returns once the listener is bound; requests are
// handled on background goroutines until Shutdown.
func Serve(d *Daemon, addr string) (*Server, error) {
	return serve(d, addr, readHeaderTimeout, readTimeout)
}

// serve is Serve with the read timeouts as arguments, so a test of the
// cut-off need not wait out the production values.
func serve(d *Daemon, addr string, headerTimeout, bodyTimeout time.Duration) (*Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("daemon: listen %s: %w", addr, err)
	}
	s := &Server{d: d, lis: lis, done: make(chan error, 1)}
	s.srv = &http.Server{
		Handler:           d.handler(),
		ReadHeaderTimeout: headerTimeout,
		ReadTimeout:       bodyTimeout,
	}
	go func() {
		err := s.srv.Serve(lis)
		if err == http.ErrServerClosed {
			err = nil
		}
		s.done <- err
	}()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Shutdown drains gracefully: new ingests are rejected immediately,
// in-flight requests (including an ingest mid-recompute) run to
// completion, the listener closes, and finally the store connection is
// released. The ctx bounds how long the drain may take.
func (s *Server) Shutdown(ctx context.Context) error {
	s.d.draining.Store(true)
	err := s.srv.Shutdown(ctx)
	if serveErr := <-s.done; err == nil {
		err = serveErr
	}
	if closeErr := s.d.Close(); err == nil {
		err = closeErr
	}
	return err
}

// handler builds the daemon's route table.
func (d *Daemon) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", d.handleHealthz)
	mux.HandleFunc("GET /status", d.handleStatus)
	mux.HandleFunc("GET /artifacts", d.handleIndex)
	mux.HandleFunc("GET /artifacts/{id}", d.handleArtifact)
	mux.HandleFunc("POST /ingest/month", d.handleIngestMonth)
	mux.HandleFunc("POST /ingest/snapshot", d.handleIngestSnapshot)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (d *Daemon) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := d.Snapshot()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"store":     d.storeState().State,
		"draining":  d.draining.Load(),
		"seq":       snap.Seq,
		"months":    snap.Months,
		"snapshots": snap.Snapshots,
	})
}

func (d *Daemon) handleStatus(w http.ResponseWriter, r *http.Request) {
	snap := d.Snapshot()
	arts := make(map[string]any, len(snap.Artifacts))
	for id, a := range snap.Artifacts {
		st := map[string]any{"runs": d.Runs(id)}
		if a.Err != "" {
			st["error"] = a.Err
		} else {
			st["tsv_bytes"] = len(a.TSV)
			st["json_bytes"] = len(a.JSON)
		}
		arts[string(id)] = st
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"seq":          snap.Seq,
		"rendered_at":  snap.At.Format(time.RFC3339Nano),
		"months":       snap.Months,
		"snapshots":    snap.Snapshots,
		"draining":     d.draining.Load(),
		"artifacts":    arts,
		"store_backed": d.cfg.StoreAddr != "",
		"store":        d.storeState(),
	})
}

func (d *Daemon) handleIndex(w http.ResponseWriter, r *http.Request) {
	ids := make([]string, 0, len(report.All()))
	for _, id := range report.All() {
		ids = append(ids, string(id))
	}
	writeJSON(w, http.StatusOK, map[string]any{"artifacts": ids})
}

func (d *Daemon) handleArtifact(w http.ResponseWriter, r *http.Request) {
	id := report.ArtifactID(r.PathValue("id"))
	snap := d.Snapshot()
	a, ok := snap.Artifacts[id]
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown artifact %q", id))
		return
	}
	if a.Err != "" {
		// Not computable from the current study state (e.g. no
		// snapshots ingested yet): unavailable, try again after ingest.
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("%s: %s", id, a.Err))
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		w.Write(a.JSON)
	case "tsv":
		w.Header().Set("Content-Type", "text/tab-separated-values")
		w.Write(a.TSV)
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown format %q (want json or tsv)", format))
	}
}

// ingestReply is the mutators' response: what changed and how big the
// study is now.
func (d *Daemon) ingestReply(w http.ResponseWriter) {
	snap := d.Snapshot()
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":        true,
		"seq":       snap.Seq,
		"months":    snap.Months,
		"snapshots": snap.Snapshots,
	})
}

// decodeIngest reads an ingest request's body — one JSON object and
// nothing after it, maxIngestBody at most — into req. On a body that is
// not that it answers 413 or 400 with what the endpoint accepts and
// reports false.
func decodeIngest(w http.ResponseWriter, r *http.Request, req any, accepts string) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxIngestBody))
	err := dec.Decode(req)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return true
		}
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("body over %d bytes; it must be %s", tooBig.Limit, accepts))
		return false
	}
	writeError(w, http.StatusBadRequest, fmt.Errorf("body must be %s and nothing else", accepts))
	return false
}

func (d *Daemon) handleIngestMonth(w http.ResponseWriter, r *http.Request) {
	const accepts = `{"month": <integer index>} or {"month": "2006-01"}`
	var req struct {
		Month json.RawMessage `json:"month"`
	}
	if !decodeIngest(w, r, &req, accepts) {
		return
	}
	// A raw message keeps a literal null, and unmarshalling null into
	// an int is a silent no-op that would ingest month 0: take the two
	// accepted shapes apart by hand.
	var m int
	var err error
	if len(req.Month) > 0 && req.Month[0] == '"' {
		var label string
		if err = json.Unmarshal(req.Month, &label); err == nil {
			m, err = d.parseMonthArg(label)
		}
	} else if m, err = strconv.Atoi(string(req.Month)); err != nil {
		err = fmt.Errorf("month %q: body must be %s", req.Month, accepts)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := d.IngestMonth(m); err != nil {
		writeError(w, ingestStatus(err), err)
		return
	}
	d.ingestReply(w)
}

func (d *Daemon) handleIngestSnapshot(w http.ResponseWriter, r *http.Request) {
	const accepts = `{"time": "<RFC 3339>"}`
	var req struct {
		Time string `json:"time"`
	}
	if !decodeIngest(w, r, &req, accepts) {
		return
	}
	ts, err := time.Parse(time.RFC3339Nano, req.Time)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("time %q: %v", req.Time, err))
		return
	}
	if err := d.IngestSnapshot(ts); err != nil {
		writeError(w, ingestStatus(err), err)
		return
	}
	d.ingestReply(w)
}

// ingestStatus maps mutator errors to HTTP: draining and a degraded
// store are 503 (retry later — against the next instance, or once the
// reconnect loop lands), everything else is a 400-class request
// problem.
func ingestStatus(err error) int {
	if err == errDraining || err == errStoreDegraded {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}
