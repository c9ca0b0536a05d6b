// Operator workflow: the serving side of the deployment — a honeyfarm
// month is loaded into the D4M triple store, fetched back over TCP and
// queried, the way the paper's pipeline spans the GreyNoise feed and an
// Accumulo service.
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"repro/internal/assoc"
	"repro/internal/honeyfarm"
	"repro/internal/radiation"
	"repro/internal/tripled"
)

func main() {
	cfg := radiation.DefaultConfig()
	cfg.NumSources = 20000
	pop, err := radiation.NewPopulation(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// --- Honeyfarm month served from the triple store over TCP ---
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

	// Analyst query 2: the heaviest sources by packet count, ties by
	// address.
	type rowPackets struct {
		row     string
		packets float64
	}
	var heavy []rowPackets
	month.Iterate(func(row, col string, v assoc.Value) bool {
		if col == honeyfarm.ColPackets && v.Numeric {
			heavy = append(heavy, rowPackets{row, v.Num})
		}
		return true
	})
	sort.Slice(heavy, func(i, j int) bool {
		if heavy[i].packets != heavy[j].packets {
			return heavy[i].packets > heavy[j].packets
		}
		return heavy[i].row < heavy[j].row
	})
	fmt.Println("heaviest honeyfarm sources this month:")
	for _, h := range heavy[:min(3, len(heavy))] {
		class, _ := month.Get(h.row, honeyfarm.ColClassification)
		intent, _ := month.Get(h.row, honeyfarm.ColIntent)
		fmt.Printf("  %-15s %3.0f packets, %s/%s\n", h.row, h.packets, class.Str, intent.Str)
	}

	// Analyst query 3: the sources of a key-range neighborhood.
	keys := month.RowKeys()
	fmt.Printf("sources in [9., A): %d\n", sort.SearchStrings(keys, "A")-sort.SearchStrings(keys, "9."))
}
