// Operator workflow: the storage-and-serving side of the deployment —
// the telescope archives anonymized leaf matrices to disk, an analysis
// job reconstructs the window from the archive, and a honeyfarm month is
// loaded into the D4M triple store, fetched back over TCP and queried,
// the way the paper's pipeline spans the LBNL archive and an Accumulo
// service.
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"repro/internal/archive"
	"repro/internal/assoc"
	"repro/internal/honeyfarm"
	"repro/internal/netquant"
	"repro/internal/radiation"
	"repro/internal/telescope"
	"repro/internal/tripled"
)

func main() {
	cfg := radiation.DefaultConfig()
	cfg.NumSources = 20000
	pop, err := radiation.NewPopulation(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// --- 1. Telescope capture straight to an on-disk archive ---
	dir, err := os.MkdirTemp("", "telescope-archive-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	aw, err := archive.Create(dir)
	if err != nil {
		log.Fatal(err)
	}
	tel := telescope.New(cfg.Darkspace, "operator-key", telescope.WithLeafSize(1<<12))
	start := time.Date(2020, 6, 17, 12, 0, 0, 0, time.UTC)
	valid, dropped, err := tel.CaptureToArchive(pop.TelescopeStream(4.5, start), 1<<16, aw)
	if err != nil {
		log.Fatal(err)
	}
	if err := aw.Finish(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("archived %d valid packets (%d dropped) as %d leaf matrices in %s\n",
		valid, dropped, aw.Leaves(), dir)

	// --- 2. Analysis job reconstructs the window from the archive ---
	ds, err := archive.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	win, err := ds.SumAll(0)
	if err != nil {
		log.Fatal(err)
	}
	q := netquant.Compute(win)
	fmt.Printf("reconstructed window: %v packets, %v unique sources, %v unique links\n",
		q.ValidPackets, q.UniqueSources, q.UniqueLinks)

	// --- 3. Honeyfarm month served from the triple store over TCP ---
	farm := honeyfarm.New(200, cfg.Seed+1)
	monthStart := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
	mw := farm.IngestMonth("2020-06", monthStart, pop.HoneyfarmMonth(4, monthStart))

	store := tripled.NewStore()
	store.LoadAssoc(mw.Table)
	srv, err := tripled.Serve(store, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("honeyfarm month 2020-06 (%d sources) served at %s\n", mw.Sources(), srv.Addr())

	client, err := tripled.Dial(srv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	// The month comes back over the wire once, as CELLS pages; the
	// analyst's queries run on the fetched table.
	month, err := client.FetchAssoc("", 512)
	if err != nil {
		log.Fatal(err)
	}

	// Analyst query 1: what classes of sources did we see?
	counts := map[string]int{}
	month.Iterate(func(_, col string, v assoc.Value) bool {
		if col == honeyfarm.ColClassification {
			counts[v.Str]++
		}
		return true
	})
	fmt.Printf("classification census over the wire: %v\n", counts)

	// Analyst query 2: the heaviest sources by packet count.
	top := month.TopKByColumn(honeyfarm.ColPackets, 3)
	fmt.Println("heaviest honeyfarm sources this month:")
	for _, rv := range top {
		class, _ := month.Get(rv.Row, honeyfarm.ColClassification)
		intent, _ := month.Get(rv.Row, honeyfarm.ColIntent)
		fmt.Printf("  %-15s %3.0f packets, %s/%s\n", rv.Row, rv.Value, class.Str, intent.Str)
	}

	// Analyst query 3: the sources of a key-range neighborhood.
	keys := month.RowKeys()
	fmt.Printf("sources in [9., A): %d\n", sort.SearchStrings(keys, "A")-sort.SearchStrings(keys, "9."))

	// And the store replays from its log identically.
	var logBuf bytes.Buffer
	if err := store.WriteLog(&logBuf); err != nil {
		log.Fatal(err)
	}
	replica := tripled.NewStore()
	if err := replica.ReplayLog(&logBuf); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replica rebuilt from log: %d cells (original %d)\n", replica.NNZ(), store.NNZ())
}
