package repro

// tripled_bench_test.go measures the D4M service ingest path the
// acceptance bar cares about: publishing the same honeyfarm month table
// over one round trip per cell (the pre-batching protocol) versus the
// batched, pipelined BATCH path. The batched path must win by >= 5x;
// BenchmarkTripledIngest reports cells/sec for both so the ratio is in
// the bench output.

import (
	"sync"
	"testing"
	"time"

	"repro/internal/assoc"
	"repro/internal/honeyfarm"
	"repro/internal/radiation"
	"repro/internal/stats"
	"repro/internal/tripled"
)

var (
	benchMonthOnce  sync.Once
	benchMonthTable *assoc.Assoc
	benchMonthErr   error
)

// benchMonth builds one enriched honeyfarm month table, shared across
// ingest benchmarks so both paths load identical cells.
func benchMonth(tb testing.TB) *assoc.Assoc {
	tb.Helper()
	benchMonthOnce.Do(func() {
		cfg := radiation.DefaultConfig()
		cfg.NumSources = 4000
		cfg.ZM = stats.PaperZM(1 << 11)
		pop, err := radiation.NewPopulation(cfg)
		if err != nil {
			benchMonthErr = err
			return
		}
		start := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
		benchMonthTable = honeyfarm.BuildMonth("2020-06", pop.HoneyfarmMonth(4, start)).Table
	})
	if benchMonthErr != nil {
		tb.Fatal(benchMonthErr)
	}
	return benchMonthTable
}

func benchIngest(b *testing.B, ingest func(c *tripled.Client, prefix string, table *assoc.Assoc) error) {
	table := benchMonth(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Fresh server per iteration so both paths load into an empty
		// store — otherwise the faster path pays for a bigger table.
		b.StopTimer()
		srv, err := tripled.Serve(tripled.NewStore(), "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		c, err := tripled.Dial(srv.Addr())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		err = ingest(c, "m/", table)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		nnz, err := c.NNZ()
		if err != nil {
			b.Fatal(err)
		}
		if nnz != table.NNZ() {
			b.Fatalf("ingested %d cells, want %d", nnz, table.NNZ())
		}
		c.Close()
		srv.Close()
		b.StartTimer()
	}
	b.StopTimer()
	cells := float64(table.NNZ())
	b.ReportMetric(cells*float64(b.N)/b.Elapsed().Seconds(), "cells/sec")
	b.ReportMetric(cells, "cells/table")
}

// BenchmarkTripledIngest/percell is the old protocol: one PUT round
// trip per cell.
func BenchmarkTripledIngest(b *testing.B) {
	b.Run("percell", func(b *testing.B) {
		benchIngest(b, func(c *tripled.Client, prefix string, table *assoc.Assoc) error {
			var err error
			table.Iterate(func(row, col string, v assoc.Value) bool {
				err = c.Put(prefix+row, col, v)
				return err == nil
			})
			return err
		})
	})
	b.Run("pipelined", func(b *testing.B) {
		benchIngest(b, func(c *tripled.Client, prefix string, table *assoc.Assoc) error {
			return c.PublishAssoc(prefix, table, honeyfarm.PublishBatch)
		})
	})
}

// BenchmarkTripledQueries measures the read side the analyst workflow
// leans on: per-row lookups and the degree-table top-k.
func BenchmarkTripledQueries(b *testing.B) {
	table := benchMonth(b)
	store := tripled.NewStore()
	store.LoadAssoc(table)
	srv, err := tripled.Serve(store, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := tripled.Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	rows := table.RowKeys()
	b.Run("row", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.RowCells(rows[i%len(rows)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("topdeg", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.TopRowsByDegree(10); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTripledPublishAssoc publishes one month table over loopback
// into a long-lived server, the publish half of a store-backed study.
// fresh publishes into an empty prefix, as a study publishes each month
// once: PublishAssoc's DeletePrefix reads one empty page (the previous
// op's cells are deleted with the timer stopped). republish replaces
// the table the previous op left under the prefix, as a republished
// month does: every op first deletes its cells, page by page.
func BenchmarkTripledPublishAssoc(b *testing.B) {
	table := benchMonth(b)
	for _, fresh := range []bool{true, false} {
		name := "republish"
		if fresh {
			name = "fresh"
		}
		b.Run(name, func(b *testing.B) {
			srv, err := tripled.Serve(tripled.NewStore(), "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			c, err := tripled.Dial(srv.Addr())
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			if err := c.PublishAssoc("m/", table, honeyfarm.PublishBatch); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if fresh {
					b.StopTimer()
					if err := c.DeletePrefix("m/", 512); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				if err := c.PublishAssoc("m/", table, honeyfarm.PublishBatch); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if nnz, err := c.NNZ(); err != nil || nnz != table.NNZ() {
				b.Fatalf("store holds %d cells (%v), want %d", nnz, err, table.NNZ())
			}
			b.ReportMetric(float64(table.NNZ())*float64(b.N)/b.Elapsed().Seconds(), "cells/sec")
		})
	}
}

// BenchmarkTripledFetchAssoc reads the published month table back, the
// fetch half of a store-backed study: cells, the whole table over CELLS
// pages as a snapshot's source table is read, and keys, its rows alone
// over KEYS pages as a month is.
func BenchmarkTripledFetchAssoc(b *testing.B) {
	table := benchMonth(b)
	srv, err := tripled.Serve(tripled.NewStore(), "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := tripled.Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if err := c.PublishAssoc("m/", table, honeyfarm.PublishBatch); err != nil {
		b.Fatal(err)
	}
	b.Run("cells", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			back, err := c.FetchAssoc("m/", 512)
			if err != nil {
				b.Fatal(err)
			}
			if back.NNZ() != table.NNZ() {
				b.Fatalf("fetched %d cells, want %d", back.NNZ(), table.NNZ())
			}
		}
		b.ReportMetric(float64(table.NNZ())*float64(b.N)/b.Elapsed().Seconds(), "cells/sec")
	})
	b.Run("keys", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			keys, err := c.FetchKeys("m/", 4096)
			if err != nil {
				b.Fatal(err)
			}
			if len(keys) != table.NRows() {
				b.Fatalf("fetched %d keys, want %d", len(keys), table.NRows())
			}
		}
		b.ReportMetric(float64(table.NRows())*float64(b.N)/b.Elapsed().Seconds(), "rows/sec")
	})
}

// TestTripledIngestSpeedup is the checked form of the acceptance bar:
// batched, pipelined ingest of a month table must be at least 5x faster
// than the per-cell round-trip path, each publishing into its own fresh
// server. Loopback makes this the worst case for the ratio (a round
// trip costs microseconds, not a real network's RTT); dev hardware
// still shows ~6-9x, so 5x holds with margin anywhere slower.
func TestTripledIngestSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	table := benchMonth(t)
	timeIngest := func(ingest func(c *tripled.Client) error) time.Duration {
		srv, err := tripled.Serve(tripled.NewStore(), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		c, err := tripled.Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		t0 := time.Now()
		if err := ingest(c); err != nil {
			t.Fatal(err)
		}
		return time.Since(t0)
	}

	// Best of three attempts: the assertion is about the protocol, not
	// about winning a fair scheduling race on a loaded CI runner, so one
	// noisy-neighbor stall must not fail the build.
	best := 0.0
	for attempt := 0; attempt < 3 && best < 5; attempt++ {
		perCell := timeIngest(func(c *tripled.Client) error {
			var err error
			table.Iterate(func(row, col string, v assoc.Value) bool {
				err = c.Put("m/"+row, col, v)
				return err == nil
			})
			return err
		})
		pipelined := timeIngest(func(c *tripled.Client) error {
			return c.PublishAssoc("m/", table, honeyfarm.PublishBatch)
		})
		speedup := float64(perCell) / float64(pipelined)
		t.Logf("attempt %d: per-cell %v, pipelined %v, speedup %.1fx over %d cells",
			attempt+1, perCell, pipelined, speedup, table.NNZ())
		if speedup > best {
			best = speedup
		}
	}
	if best < 5 {
		t.Errorf("pipelined ingest only %.1fx faster than per-cell, want >= 5x", best)
	}
}
