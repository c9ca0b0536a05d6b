package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/report"
)

// ingestOp is one unit the operator feeds the daemon.
type ingestOp struct {
	snapshot bool
	month    int
	ts       time.Time // snapshot time
	arrives  time.Time // when the unit exists: a month at its end, a snapshot at its time
}

// ingestScript lists every month and snapshot of the study in calendar
// arrival order, the order a live deployment would see them.
func ingestScript(cfg core.Config) []ingestOp {
	var ops []ingestOp
	for m := 0; m < cfg.Radiation.Months; m++ {
		ops = append(ops, ingestOp{month: m, arrives: cfg.StudyStart.AddDate(0, m+1, 0)})
	}
	for _, ts := range cfg.SnapshotTimes {
		ops = append(ops, ingestOp{snapshot: true, ts: ts, arrives: ts})
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].arrives.Before(ops[j].arrives) })
	return ops
}

// studyState is the daemon's size as /healthz and the ingest replies
// report it.
type studyState struct {
	Seq       int64 `json:"seq"`
	Months    int   `json:"months"`
	Snapshots int   `json:"snapshots"`
}

// httpClient is one client with one connection, as one operator or one
// poller process would hold.
func httpClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   2 * time.Minute,
	}
}

// getBody GETs url and returns the status and body.
func getBody(c *http.Client, url string) (int, []byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// pollStats is what one poller of one repetition saw.
type pollStats struct {
	latency []float64 // seconds from each request's due time
	late    []float64 // seconds the generator sent after the due time
	refused []refusal // 503s, judged against the operator's /status history after the run
	failed  []string
}

// refusal is one 503 a poller got for artifact id (index in report.All).
type refusal struct {
	id         int
	sent, done time.Time
	body       string
}

// statusSeen is one /status the operator read: which artifacts carried
// an error (not computable from the study as it then stood).
type statusSeen struct {
	at     time.Time
	errors []bool // by index in report.All
}

// studydSession is one repetition: a fresh daemon behind its HTTP
// front end, one closed-loop operator and the open-loop pollers.
type studydSession struct {
	base string
	// history is every /status the operator read, one before the first
	// ingest and one after each. Computability comes and goes (a new
	// snapshot has no same-month honeyfarm table until that month ends),
	// so a poller's 503 is the documented "not computable yet" answer
	// exactly when some status that could have been current during the
	// request lists the artifact with an error.
	history []statusSeen
}

// expected reports whether a 503 was the right answer: status k was
// current from ingest k's completion (after status k-1 was read) to
// ingest k+1's (before status k+1 was read).
func (s *studydSession) expected(rf refusal) bool {
	for k, st := range s.history {
		began := k == 0 || s.history[k-1].at.Before(rf.done)
		ended := k+1 < len(s.history) && s.history[k+1].at.Before(rf.sent)
		if began && !ended && st.errors[rf.id] {
			return true
		}
	}
	return false
}

func (r *run) studydIngest() error {
	cfg := r.seeded(r.scale.window())
	script := ingestScript(cfg)
	ids := report.All()

	// The oracle: the batch study of the same configuration.
	p, err := core.New(cfg)
	if err != nil {
		return err
	}
	oracle, err := runStudy(p)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}

	// One operator plus the pollers never exceed GOMAXPROCS clients.
	pollers := max(1, min(2, r.gomaxprocs-1))
	r.clients = 1 + pollers

	var walls []float64               // per repetition
	var monthVis, snapVis [][]float64 // per repetition, per scripted ingest
	var pollLat, pollLate []float64   // pooled over repetitions
	err = r.repeat(func(i int) error {
		var d *daemon.Daemon
		var srv *daemon.Server
		err := r.timeSetup(func() (err error) {
			if d, err = daemon.New(cfg); err != nil {
				return err
			}
			srv, err = daemon.Serve(d, "127.0.0.1:0")
			return err
		})
		if err != nil {
			return err
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			srv.Shutdown(ctx)
		}()
		s := &studydSession{base: "http://" + srv.Addr()}

		stop := make(chan struct{})
		stats := make([]pollStats, pollers)
		var wg sync.WaitGroup
		for k := range stats {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.poll(&stats[k], k, stop)
			}()
		}
		months, snaps, wall, err := r.operate(s, script)
		close(stop)
		wg.Wait()
		if err != nil {
			return err
		}
		r.finalArtifacts(s, oracle.artifacts)
		for k := range stats {
			r.ops(len(stats[k].latency))
			for _, rf := range stats[k].refused {
				if !s.expected(rf) {
					stats[k].failed = append(stats[k].failed, fmt.Sprintf("503 for %s while /status listed it computable: %s", ids[rf.id], rf.body))
				}
			}
			for _, f := range stats[k].failed {
				r.failIf(fmt.Errorf("rep %d poller %d: %s", i, k, f))
			}
			if !r.warming {
				pollLat = append(pollLat, stats[k].latency...)
				pollLate = append(pollLate, stats[k].late...)
			}
		}
		if !r.warming {
			walls = append(walls, wall)
			monthVis = append(monthVis, months)
			snapVis = append(snapVis, snaps)
		}
		return nil
	})
	if err != nil {
		return err
	}
	// A month costs anything from a table build to a refit over five
	// snapshots, so the p50 of fifteen is one particular month's single
	// measurement. The gated latency is therefore the mean over the
	// fifteen, each taken at its median across repetitions; the p50
	// stays a layer metric.
	months := medianAt(monthVis)
	r.setMedian("wall_s", 1, walls)
	r.set("latency_ms", 1e3*sum(months)/float64(len(months)), len(walls)*len(months))
	r.set("ingest_wall_s", median(walls), len(walls))
	r.set("month_visible_p50_ms", 1e3*median(months), len(walls)*len(months))
	r.set("snapshot_visible_p50_ms", 1e3*median(medianAt(snapVis)), len(walls)*len(snapVis[0]))
	r.set("poll_p99_ms", 1e3*percentile(pollLat, 0.99), len(pollLat))
	r.set("daemon.poll_p50_ms", 1e3*median(pollLat), len(pollLat))
	r.set("daemon.polls", float64(len(pollLat))/float64(len(walls)), len(walls))
	r.set("daemon.poll_late_ms", 1e3*percentile(pollLate, 0.99), len(pollLate))
	if r.tr == nil {
		return nil
	}

	// Traced pass: the same arrival order straight into Daemon.Ingest*,
	// no HTTP and no pollers, one span per ingest.
	tr := r.tr
	d, err := daemon.New(cfg)
	if err != nil {
		return err
	}
	defer d.Close()
	root := tr.begin(-1, "ingest")
	for _, op := range script {
		if op.snapshot {
			err = tr.do(root, "daemon.ingest_snapshot", func() error { return d.IngestSnapshot(op.ts) })
		} else {
			err = tr.do(root, "daemon.ingest_month", func() error { return d.IngestMonth(op.month) })
		}
		if err != nil {
			return fmt.Errorf("traced pass: %w", err)
		}
	}
	tr.end(root)
	tr.sumChildren("ingest")
	var got [][]byte
	for _, id := range ids {
		a := d.Snapshot().Artifacts[id]
		got = append(got, a.TSV, a.JSON)
	}
	r.sameArtifacts("traced pass", got, oracle.artifacts)
	for _, id := range ids {
		r.set("report.runs."+string(id), float64(d.Runs(id)), 1)
	}
	direct := tr.total("ingest")
	r.set("daemon.ingest_month_s", tr.total("daemon.ingest_month"), cfg.Radiation.Months)
	r.set("daemon.ingest_snapshot_s", tr.total("daemon.ingest_snapshot"), len(cfg.SnapshotTimes))
	r.set("daemon.http_overhead_ms", 1e3*(median(walls)-direct)/float64(len(script)), len(script))
	r.set("trace.overhead_share", direct/median(walls)-1, 1)
	return nil
}

// operate is the closed-loop operator: POST one unit, then GET /healthz
// until it reports the advanced study, then /status to learn which
// artifacts are computable now (not timed as part of any latency). It returns the POST-sent → visible
// latency of every month and snapshot and the first-POST → last-visible
// wall.
func (r *run) operate(s *studydSession, script []ingestOp) (months, snaps []float64, wall float64, err error) {
	c := httpClient()
	defer c.CloseIdleConnections()
	var cur studyState
	if err := getJSON(c, s.base+"/healthz", &cur); err != nil {
		return nil, nil, 0, err
	}
	if err := s.readStatus(c); err != nil {
		return nil, nil, 0, err
	}
	t0 := time.Now()
	for _, op := range script {
		path, body := "/ingest/month", fmt.Sprintf(`{"month": %d}`, op.month)
		want := studyState{Seq: cur.Seq + 1, Months: cur.Months + 1, Snapshots: cur.Snapshots}
		if op.snapshot {
			path, body = "/ingest/snapshot", fmt.Sprintf(`{"time": %q}`, op.ts.Format(time.RFC3339Nano))
			want = studyState{Seq: cur.Seq + 1, Months: cur.Months, Snapshots: cur.Snapshots + 1}
		}
		r.ops(1)
		sent := time.Now()
		resp, err := c.Post(s.base+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			return nil, nil, 0, err
		}
		reply, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, nil, 0, fmt.Errorf("POST %s %s: %d %s", path, body, resp.StatusCode, reply)
		}
		// Visible means the operator's own follow-up read sees it, which
		// holds whether ingest stays synchronous or later becomes async.
		for {
			if err := getJSON(c, s.base+"/healthz", &cur); err != nil {
				return nil, nil, 0, err
			}
			if cur.Seq > want.Seq-1 {
				break
			}
			time.Sleep(time.Millisecond)
		}
		visible := since(sent)
		if cur != want {
			r.failIf(fmt.Errorf("after POST %s %s the study is %+v, want %+v (seq must advance exactly once per ingest)", path, body, cur, want))
		}
		if op.snapshot {
			snaps = append(snaps, visible)
		} else {
			months = append(months, visible)
		}
		wall = since(t0)
		if err := s.readStatus(c); err != nil {
			return nil, nil, 0, err
		}
	}
	return months, snaps, wall, nil
}

func getJSON(c *http.Client, url string, v any) error {
	code, body, err := getBody(c, url)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", url, code, body)
	}
	return json.Unmarshal(body, v)
}

// readStatus appends the current /status to the history. Only the
// operator calls it, and the pollers' refusals are judged after it has
// finished, so the history needs no lock.
func (s *studydSession) readStatus(c *http.Client) error {
	var status struct {
		Artifacts map[string]struct {
			Error string `json:"error"`
		} `json:"artifacts"`
	}
	if err := getJSON(c, s.base+"/status", &status); err != nil {
		return err
	}
	seen := statusSeen{at: time.Now()}
	for _, id := range report.All() {
		seen.errors = append(seen.errors, status.Artifacts[string(id)].Error != "")
	}
	s.history = append(s.history, seen)
	return nil
}

// pollPeriod is each poller's fixed open-loop rate: 100 requests/s.
const pollPeriod = 10 * time.Millisecond

// poll is one open-loop poller: a request is due every pollPeriod
// whatever the daemon is doing, walking the artifacts round-robin, and
// its latency counts from the due time, so a stall is charged to every
// request that waited behind it.
func (s *studydSession) poll(st *pollStats, k int, stop <-chan struct{}) {
	c := httpClient()
	defer c.CloseIdleConnections()
	ids := report.All()
	first := time.Now()
	for n := 0; ; n++ {
		due := first.Add(time.Duration(n) * pollPeriod)
		select {
		case <-stop:
			return
		case <-time.After(time.Until(due)):
		}
		i := (n + k) % len(ids)
		sent := time.Now()
		code, body, err := getBody(c, s.base+"/artifacts/"+string(ids[i])+"?format=tsv")
		st.latency = append(st.latency, since(due))
		st.late = append(st.late, sent.Sub(due).Seconds())
		switch {
		case err != nil:
			st.failed = append(st.failed, err.Error())
		case code == http.StatusOK:
		case code == http.StatusServiceUnavailable:
			st.refused = append(st.refused, refusal{id: i, sent: sent, done: time.Now(), body: string(body)})
		default:
			st.failed = append(st.failed, fmt.Sprintf("GET %s: %d %s", ids[i], code, body))
		}
	}
}

// finalArtifacts fetches all seven artifacts in both encodings and
// holds them against the batch study's bytes.
func (r *run) finalArtifacts(s *studydSession, want [][]byte) {
	c := httpClient()
	defer c.CloseIdleConnections()
	var got [][]byte
	for _, id := range report.All() {
		for _, format := range []string{"tsv", "json"} {
			code, body, err := getBody(c, s.base+"/artifacts/"+string(id)+"?format="+format)
			if err != nil || code != http.StatusOK {
				r.failIf(fmt.Errorf("final GET %s %s: %d %v", id, format, code, err))
			}
			got = append(got, body)
		}
	}
	r.sameArtifacts("daemon after the last ingest", got, want)
}
