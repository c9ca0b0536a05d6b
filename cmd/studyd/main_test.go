package main

// main_test.go drives the built studyd binary end to end, mirroring
// the cmd/scenarios subprocess pattern: start it on an ephemeral port,
// grow the study over the ingest API while 8 concurrent clients poll
// an artifact, check the served bytes against an in-process batch run
// of the same inputs, then SIGTERM with an ingest in flight and
// require a clean drain (exit 0, the in-flight request answered).

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/report"
)

var (
	binOnce sync.Once
	binPath string
	binErr  error
)

// binary builds cmd/studyd once per test run.
func binary(t *testing.T) string {
	t.Helper()
	binOnce.Do(func() {
		dir, err := os.MkdirTemp("", "studyd-bin")
		if err != nil {
			binErr = err
			return
		}
		binPath = filepath.Join(dir, "studyd")
		out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput()
		if err != nil {
			binErr = err
			binPath = string(out)
		}
	})
	if binErr != nil {
		t.Fatalf("building studyd binary: %v\n%s", binErr, binPath)
	}
	return binPath
}

// e2eConfig mirrors the flags the subprocess gets; the in-process
// batch oracle must run the identical study.
func e2eConfig() core.Config {
	cfg := core.QuickConfig()
	cfg.NV = 1 << 12
	cfg.Radiation.NumSources = 3000
	cfg.Radiation.Months = 9
	cfg.SnapshotTimes = cfg.SnapshotTimes[:2] // June + July, inside 9 months
	return cfg
}

// stderrLog collects the daemon's stderr and announces the listen
// address once its line is in. It is handed to exec as a plain writer,
// so cmd.Wait returns only after every byte the process wrote has been
// copied in: the drain confirmation cannot be missed by reading too
// soon, as it could through StderrPipe.
type stderrLog struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string // buffered; nil once the address went out
}

func (l *stderrLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	const marker = "studyd listening on "
	if l.addr != nil {
		if _, after, ok := strings.Cut(l.buf.String(), marker); ok {
			if line, _, ok := strings.Cut(after, "\n"); ok {
				l.addr <- strings.TrimSpace(line)
				l.addr = nil
			}
		}
	}
	return len(p), nil
}

func (l *stderrLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// startDaemon launches the binary and returns its base URL once the
// listen line appears on stderr; stderr keeps draining into the log.
func startDaemon(t *testing.T, args ...string) (*exec.Cmd, string, *stderrLog) {
	t.Helper()
	cmd := exec.Command(binary(t), args...)
	addrCh := make(chan string, 1)
	log := &stderrLog{addr: addrCh}
	cmd.Stderr = log
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	select {
	case addr := <-addrCh:
		return cmd, "http://" + addr, log
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("studyd never printed its listen line; stderr:\n%s", log)
		return nil, "", nil
	}
}

func httpGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

func httpPost(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

func TestDaemonEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives a full incremental study")
	}
	cfg := e2eConfig()
	cmd, base, stderrBuf := startDaemon(t,
		"-listen", "127.0.0.1:0", "-scale", "quick",
		"-nv", "4096", "-sources", "3000", "-months", "9")
	defer cmd.Process.Kill() // no-op after a clean Wait

	// 8 concurrent pollers ride /artifacts/table2 through the whole
	// ingest phase: before the first snapshot lands they see 200 with
	// an empty table; afterwards 200 with rows. Anything else fails.
	stop := make(chan struct{})
	var pollers sync.WaitGroup
	for i := 0; i < 8; i++ {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(base + "/artifacts/table2?format=tsv")
				if err != nil {
					t.Errorf("poller: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("poller: /artifacts/table2 = %d", resp.StatusCode)
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}

	// Grow the study to the oracle's exact inputs.
	for m := 0; m < cfg.Radiation.Months; m++ {
		if code, body := httpPost(t, base+"/ingest/month", fmt.Sprintf(`{"month": %d}`, m)); code != 200 {
			t.Fatalf("ingest month %d: %d %s", m, code, body)
		}
	}
	for _, ts := range cfg.SnapshotTimes {
		if code, body := httpPost(t, base+"/ingest/snapshot",
			fmt.Sprintf(`{"time": %q}`, ts.Format(time.RFC3339))); code != 200 {
			t.Fatalf("ingest snapshot %v: %d %s", ts, code, body)
		}
	}
	close(stop)
	pollers.Wait()

	// Parity: every artifact the daemon serves must be byte-identical
	// to a from-scratch batch run of the same study.
	p, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	g := res.Report()
	for _, id := range report.All() {
		var tsv, js bytes.Buffer
		if err := report.WriteTSV(&tsv, g, id); err != nil {
			t.Fatalf("batch %s: %v", id, err)
		}
		if err := report.WriteJSON(&js, g, id); err != nil {
			t.Fatalf("batch %s: %v", id, err)
		}
		if code, body := httpGet(t, fmt.Sprintf("%s/artifacts/%s?format=tsv", base, id)); code != 200 {
			t.Errorf("%s tsv: %d", id, code)
		} else if !bytes.Equal(body, tsv.Bytes()) {
			t.Errorf("%s: served TSV diverges from batch oracle", id)
		}
		if code, body := httpGet(t, fmt.Sprintf("%s/artifacts/%s", base, id)); code != 200 {
			t.Errorf("%s json: %d", id, code)
		} else if !bytes.Equal(body, js.Bytes()) {
			t.Errorf("%s: served JSON diverges from batch oracle", id)
		}
	}

	// SIGTERM with an ingest mid-recompute: fire a third snapshot
	// (September, inside the 9-month study) and signal immediately.
	// The drain contract: the in-flight ingest either completes (200)
	// or was rejected as draining (503) — never dropped — and the
	// process exits 0.
	sept := core.DefaultConfig().SnapshotTimes[2]
	ingestDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(base+"/ingest/snapshot", "application/json",
			strings.NewReader(fmt.Sprintf(`{"time": %q}`, sept.Format(time.RFC3339))))
		if err != nil {
			ingestDone <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		ingestDone <- resp.StatusCode
	}()
	time.Sleep(50 * time.Millisecond) // let the POST reach the mutator
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-ingestDone:
		if code != 200 && code != 503 {
			t.Errorf("in-flight ingest during drain answered %d, want 200 or 503", code)
		}
	case <-time.After(60 * time.Second):
		t.Error("in-flight ingest never answered during drain")
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("studyd exited uncleanly after SIGTERM: %v\nstderr:\n%s", err, stderrBuf.String())
	}
	if !strings.Contains(stderrBuf.String(), "drained cleanly") {
		t.Errorf("no drain confirmation on stderr:\n%s", stderrBuf.String())
	}
}

// TestPreloadAndHealth smoke-tests -preload: the daemon must come up
// already serving a complete study.
func TestPreloadAndHealth(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full preloaded study")
	}
	cmd, base, _ := startDaemon(t,
		"-listen", "127.0.0.1:0", "-scale", "quick",
		"-nv", "4096", "-sources", "3000", "-months", "9", "-preload")
	defer cmd.Process.Kill()

	if code, body := httpGet(t, base+"/healthz"); code != 200 || !bytes.Contains(body, []byte(`"months": 9`)) {
		t.Fatalf("healthz after preload: %d %s", code, body)
	}
	if code, body := httpGet(t, base+"/artifacts/fig7_fig8?format=tsv"); code != 200 ||
		!bytes.HasPrefix(body, []byte("snapshot\t")) {
		t.Fatalf("fig7_fig8 after preload: %d %.120s", code, body)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("preloaded daemon exited uncleanly: %v", err)
	}
}

// TestScaleTypoServesNothing: `-scale defualt` used to serve the quick
// preset without a word. A preset that names nothing fails the parse:
// exit 2 with the accepted values, no study built, no listener bound.
func TestScaleTypoServesNothing(t *testing.T) {
	// The deadline is for the parent's behaviour: a daemon that serves.
	ctx, cancel := context.WithTimeout(t.Context(), 10*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, binary(t), "-listen", "127.0.0.1:0", "-scale", "defualt")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 2 {
		t.Errorf("studyd -scale defualt: %v, want exit 2\n%s", err, &stderr)
	}
	if out := stderr.String(); strings.Contains(out, "listening on") || !strings.Contains(out, "accepted: quick, default") {
		t.Errorf("refusal must list the accepted presets and never announce a listener:\n%s", out)
	}
}

// TestZeroMonthsServesNothing: `-months 0` used to serve the preset's 15
// months as if the flag were not given. A given flag is applied, so the
// zero-month study is refused before anything is built or announced.
func TestZeroMonthsServesNothing(t *testing.T) {
	// The deadline is for the parent's behaviour: a daemon that serves.
	ctx, cancel := context.WithTimeout(t.Context(), 10*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, binary(t), "-listen", "127.0.0.1:0", "-months", "0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 1 {
		t.Errorf("studyd -months 0: %v, want exit 1\n%s", err, &stderr)
	}
	if out := stderr.String(); strings.Contains(out, "listening on") || !strings.Contains(out, "Months must be positive") {
		t.Errorf("refusal must name the broken rule and never announce a listener:\n%s", out)
	}
}
