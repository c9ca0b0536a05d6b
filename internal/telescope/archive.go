package telescope

import (
	"time"

	"repro/internal/archive"
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
// aw.Finish.
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

	var pkt pcap.Packet
	for valid < nv && src.Next(&pkt) {
		if !t.Valid(&pkt) {
			dropped++
			continue
		}
		if inLeaf == 0 {
			leafStart = pkt.Time
		}
		leafEnd = pkt.Time
		arow, acol := t.anonymize(&pkt)
		builder.Add(uint32(arow), uint32(acol), 1)
		valid++
		inLeaf++
		if inLeaf == t.leafSize {
			if err := flush(); err != nil {
				return valid, dropped, err
			}
		}
	}
	if err := flush(); err != nil {
		return valid, dropped, err
	}
	if rs, ok := src.(*ReaderSource); ok && rs.Err() != nil {
		return valid, dropped, rs.Err()
	}
	return valid, dropped, nil
}
