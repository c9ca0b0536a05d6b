// Anonymized sharing: demonstrate the trusted data-sharing workflow the
// paper describes — CryptoPAN anonymization of a traffic matrix, the
// permutation invariance of Table II quantities, D4M TSV interchange,
// and correlation approach 1 (sending anonymized identifiers back to
// the data owner for deanonymization).
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/assoc"
	"repro/internal/cryptopan"
	"repro/internal/ipaddr"
	"repro/internal/netquant"
	"repro/internal/radiation"
	"repro/internal/telescope"
)

func main() {
	cfg := radiation.DefaultConfig()
	cfg.NumSources = 10000
	cfg.ZM.DMax = 1 << 12
	pop, err := radiation.NewPopulation(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// The telescope operator captures an anonymized window.
	tel := telescope.New(cfg.Darkspace, "operator-secret-key")
	win, err := tel.CaptureWindowEngine(context.Background(), pop.TelescopeStream(4.0, time.Unix(1_592_395_200, 0)), 1<<14, 0, 0)
	if err != nil {
		log.Fatal(err)
	}

	// 1. Permutation invariance: a researcher computing Table II on the
	// anonymized matrix gets exactly what the operator would get on the
	// raw one. Demonstrate by re-permuting with a second, unrelated key.
	q1 := netquant.Compute(win.Matrix)
	other := cryptopan.NewFromPassphrase("some-other-key")
	q2 := netquant.Compute(win.Matrix.PermuteFunc(func(x uint32) uint32 {
		return uint32(other.Anonymize(ipaddr.Addr(x)))
	}))
	fmt.Printf("Table II invariant under re-anonymization: %v\n", q1 == q2)
	fmt.Printf("  unique sources=%v unique links=%v max source packets=%v\n",
		q1.UniqueSources, q1.UniqueLinks, q1.MaxSourcePackets)

	// 2. D4M TSV interchange: the operator's source table (packets per
	// source) travels as a plain triple file, its rows re-keyed under the
	// operator's key so that only anonymized addresses leave the site.
	sources := tel.SourceTable(win)
	key := tel.Anonymizer().Anonymizer()
	anonTable := assoc.New()
	sources.Iterate(func(row, col string, v assoc.Value) bool {
		anonTable.Set(key.Anonymize(ipaddr.MustParse(row)).String(), col, v)
		return true
	})
	var wire bytes.Buffer
	if err := anonTable.WriteTSV(&wire); err != nil {
		log.Fatal(err)
	}
	received, err := assoc.ReadTSV(&wire)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shipped %d anonymized rows over TSV, received %d\n",
		anonTable.NRows(), received.NRows())

	// 3. Approach 1: the researcher finds the brightest anonymized
	// sources and sends them back; the operator deanonymizes with the
	// key alone, keeping no table of what was captured, and the count
	// matches its own source table.
	var bright []string
	received.Iterate(func(row, _ string, v assoc.Value) bool {
		if v.Num >= 64 {
			bright = append(bright, row)
		}
		return true
	})
	fmt.Printf("researcher flags %d bright anonymized sources; operator resolves:\n", len(bright))
	for _, row := range bright[:min(8, len(bright))] {
		orig := key.Deanonymize(ipaddr.MustParse(row))
		shipped, _ := received.Get(row, "packets")
		own, _ := sources.Get(orig.String(), "packets")
		fmt.Printf("  %v -> %v (%.0f packets, source table %.0f)\n", row, orig, shipped.Num, own.Num)
	}

	// 4. What anonymization protects: the shipped table alone does not
	// reveal whether any particular real address was present.
	probe := pop.Source(0).IP
	fmt.Printf("shipped table mentions %v: %v (anonymized ids only)\n",
		probe, received.HasRow(probe.String()))
}
