package telescope

import (
	"time"

	"repro/internal/archive"
	"repro/internal/engine"
	"repro/internal/hypersparse"
	"repro/internal/pcap"
)

// archive.go connects capture to the on-disk archive: instead of merging
// leaves in memory, CaptureToArchive streams each completed leaf matrix
// to an archive.Writer, the way the paper's deployment lands 2^17-packet
// anonymized leaf matrices in the LBNL archive for later hierarchical
// summation.

// CaptureToArchive reads up to nv valid packets from src, cutting an
// anonymized leaf matrix every leafSize packets and appending each to
// the archive writer. It returns the number of valid packets archived
// and the number dropped by the validity filter. The caller owns calling
// aw.Finish. Slabs are capped at the packets still needed (the engine's
// parity rule 1), so the capture leaves the source exactly where a
// per-packet loop would, and are mapped through shard 0's slab mapper.
//
// One triple-buffer builder serves the whole capture: Build resets it
// with retained capacity, so every leaf after the first compiles without
// growing the buffers (the map-based builder this replaces allocated a
// fresh map per leaf).
func (t *Telescope) CaptureToArchive(src PacketSource, nv int, aw *archive.Writer) (valid, dropped int, err error) {
	builder := hypersparse.NewBuilder(t.leafSize)
	inLeaf := 0
	var leafStart, leafEnd time.Time

	flush := func() error {
		if inLeaf == 0 {
			return nil
		}
		if err := aw.AppendLeaf(builder.Build(), leafStart, leafEnd); err != nil {
			return err
		}
		inLeaf = 0
		return nil
	}

	mapper := t.slabMapper(0)
	slab := make([]pcap.Packet, min(nv, t.leafSize))
	pairs := make([]engine.Pair, len(slab))
	for valid < nv {
		n := src.NextBatch(slab[:min(nv-valid, len(slab))])
		if n == 0 {
			break
		}
		kept := 0
		for i := range slab[:n] {
			if !t.Valid(&slab[i]) {
				dropped++
				continue
			}
			slab[kept] = slab[i]
			kept++
		}
		mapper(slab[:kept], pairs[:kept])
		for i, p := range pairs[:kept] {
			if inLeaf == 0 {
				leafStart = slab[i].Time
			}
			leafEnd = slab[i].Time
			builder.Add(p.Row, p.Col, 1)
			valid++
			inLeaf++
			if inLeaf == t.leafSize {
				if err := flush(); err != nil {
					return valid, dropped, err
				}
			}
		}
	}
	if err := flush(); err != nil {
		return valid, dropped, err
	}
	return valid, dropped, sourceErr(src)
}
