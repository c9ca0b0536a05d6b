// Package loadgen is the mixed-workload driver behind cmd/tripled-load
// and this package's TestLoadPhases: M concurrent clients push a seeded
// PUT/GET/TOPDEG mix through any tripled.Conn — a single server or the
// replicated cluster client — and collect per-op-kind latency samples.
// A Mid hook fires at the exact halfway point of every client's script
// (barrier-synchronized), which is how tripled-load's -chaos flag
// injects a fault at a deterministic position in the workload rather
// than at a wall-clock time.
package loadgen

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/assoc"
	"repro/internal/tripled"
)

// OpKinds are the workload's op families, in report order.
var OpKinds = []string{"PUT", "GET", "TOPDEG"}

// Config shapes one load run.
type Config struct {
	Clients int    // concurrent connections
	Ops     int    // operations per client
	Batch   int    // cells per PUT batch; <= 1 means per-cell round trips
	Rows    int    // row keyspace size
	Mix     [3]int // PUT, GET, TOPDEG weights
	TopK    int    // k of each TOPDEG query
	Seed    int64  // workload seed; client id is added per connection

	// Dial opens client id's connection. Required. Returning the
	// cluster client here is what makes the multi-node phases run the
	// same script as the single-node baseline.
	Dial func(id int) (tripled.Conn, error)

	// Mid, when set, runs exactly once after every client has finished
	// ops/2 operations and before any runs the next one — the
	// deterministic fault-injection point.
	Mid func()
}

// Stats is the merged result of a run.
type Stats struct {
	Elapsed time.Duration
	// Lat holds every latency sample per op kind, sorted ascending.
	Lat map[string][]time.Duration
	// Cells counts workload items per kind (batched PUTs count cells,
	// not batches).
	Cells map[string]int
}

// Percentile reads p (0..1) from kind's sorted samples.
func (s *Stats) Percentile(kind string, p float64) time.Duration {
	sorted := s.Lat[kind]
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// PerSec is kind's cells+queries per wall-clock second.
func (s *Stats) PerSec(kind string) float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Cells[kind]) / s.Elapsed.Seconds()
}

// ParseMix reads "70,25,5"-style PUT,GET,TOPDEG weights.
func ParseMix(s string) ([3]int, error) {
	var mix [3]int
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return mix, fmt.Errorf("mix wants three comma-separated weights, got %q", s)
	}
	total := 0
	for i, p := range parts {
		w, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || w < 0 {
			return mix, fmt.Errorf("bad mix weight %q", p)
		}
		mix[i] = w
		total += w
	}
	if total == 0 {
		return mix, fmt.Errorf("mix weights sum to zero")
	}
	return mix, nil
}

type clientStats struct {
	lat   map[string][]time.Duration
	cells map[string]int
}

func (s *clientStats) record(kind string, d time.Duration, n int) {
	s.lat[kind] = append(s.lat[kind], d)
	s.cells[kind] += n
}

// Run drives the workload to completion and merges the samples. Any
// client error aborts the run: under the cluster client a fault the
// replicas can absorb is invisible here, so a returned error means the
// failure exceeded the configured redundancy.
func Run(cfg Config) (*Stats, error) {
	switch {
	case cfg.Dial == nil:
		return nil, fmt.Errorf("loadgen: Config.Dial is required")
	case cfg.Clients < 1:
		return nil, fmt.Errorf("loadgen: Config.Clients must be at least 1, got %d", cfg.Clients)
	case cfg.Batch < 0:
		return nil, fmt.Errorf("loadgen: Config.Batch must not be negative, got %d", cfg.Batch)
	}
	total := cfg.Mix[0] + cfg.Mix[1] + cfg.Mix[2]
	if total == 0 {
		return nil, fmt.Errorf("loadgen: mix weights sum to zero")
	}
	if cfg.TopK <= 0 {
		cfg.TopK = 10
	}
	if cfg.Rows <= 0 {
		cfg.Rows = 100000
	}

	// The Mid barrier: all clients arrive at ops/2, the hook runs once,
	// everyone resumes.
	var atMid sync.WaitGroup
	resume := make(chan struct{})
	if cfg.Mid == nil {
		close(resume)
	} else {
		atMid.Add(cfg.Clients)
		go func() {
			atMid.Wait()
			cfg.Mid()
			close(resume)
		}()
	}

	var wg sync.WaitGroup
	stats := make([]*clientStats, cfg.Clients)
	errs := make(chan error, cfg.Clients)
	begin := time.Now()
	for id := 0; id < cfg.Clients; id++ {
		wg.Add(1)
		st := &clientStats{lat: make(map[string][]time.Duration), cells: make(map[string]int)}
		stats[id] = st
		go func(id int) {
			defer wg.Done()
			reached := false
			defer func() {
				if !reached && cfg.Mid != nil {
					atMid.Done() // keep the barrier from deadlocking on early error
				}
			}()
			c, err := cfg.Dial(id)
			if err != nil {
				errs <- fmt.Errorf("client %d: dial: %w", id, err)
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(id)))
			row := func() string { return "ip-" + strconv.Itoa(rng.Intn(cfg.Rows)) }
			pending := make([]tripled.Cell, 0, cfg.Batch)
			flush := func() error {
				if len(pending) == 0 {
					return nil
				}
				t0 := time.Now()
				err := c.PutBatch(pending)
				st.record("PUT", time.Since(t0), len(pending))
				pending = pending[:0]
				return err
			}
			for i := 0; i < cfg.Ops; i++ {
				if cfg.Mid != nil && i == cfg.Ops/2 {
					if err := flush(); err != nil {
						errs <- fmt.Errorf("client %d: %w", id, err)
						return
					}
					reached = true
					atMid.Done()
					<-resume
				}
				var err error
				switch r := rng.Intn(total); {
				case r < cfg.Mix[0]:
					cell := tripled.Cell{Row: row(), Col: "packets", Val: assoc.Num(float64(rng.Intn(1 << 20)))}
					if cfg.Batch <= 1 {
						t0 := time.Now()
						err = c.Put(cell.Row, cell.Col, cell.Val)
						st.record("PUT", time.Since(t0), 1)
					} else if pending = append(pending, cell); len(pending) == cfg.Batch {
						err = flush()
					}
				case r < cfg.Mix[0]+cfg.Mix[1]:
					t0 := time.Now()
					if _, err = c.Get(row(), "packets"); err == tripled.ErrNotFound {
						err = nil
					}
					st.record("GET", time.Since(t0), 1)
				default:
					t0 := time.Now()
					_, err = c.TopRowsByDegree(cfg.TopK)
					st.record("TOPDEG", time.Since(t0), 1)
				}
				if err != nil {
					errs <- fmt.Errorf("client %d: %w", id, err)
					return
				}
			}
			if err := flush(); err != nil {
				errs <- fmt.Errorf("client %d: %w", id, err)
			}
		}(id)
	}
	wg.Wait()
	elapsed := time.Since(begin)
	close(errs)
	for err := range errs {
		return nil, err
	}

	merged := &Stats{
		Elapsed: elapsed,
		Lat:     make(map[string][]time.Duration),
		Cells:   make(map[string]int),
	}
	for _, st := range stats {
		for kind, lat := range st.lat {
			merged.Lat[kind] = append(merged.Lat[kind], lat...)
			merged.Cells[kind] += st.cells[kind]
		}
	}
	for _, lat := range merged.Lat {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	}
	return merged, nil
}
