package radiation

import (
	"math"
	"time"

	"repro/internal/ipaddr"
	"repro/internal/pcap"
)

// emit.go turns the population into packet streams. A telescope window
// is the time-ordered interleaving of per-source packet trains; the
// stream is generated lazily through a k-way merge so a multi-million
// packet window never materializes in memory.

// commonScanPorts are the services Internet-wide scanners probe most,
// with rough popularity weights.
var commonScanPorts = []struct {
	port   uint16
	weight int
}{
	{23, 20}, {2323, 8}, {445, 14}, {80, 12}, {8080, 6}, {443, 8},
	{22, 8}, {3389, 7}, {5555, 4}, {1433, 3}, {3306, 3}, {25, 2},
	{21, 2}, {5900, 2}, {123, 1},
}

var scanPortTotal = func() int {
	t := 0
	for _, p := range commonScanPorts {
		t += p.weight
	}
	return t
}()

func pickScanPort(r *sm64) uint16 {
	n := r.intn(scanPortTotal)
	for _, p := range commonScanPorts {
		n -= p.weight
		if n < 0 {
			return p.port
		}
	}
	return 23
}

// sourceTrain is one active source's position in the emission merge.
type sourceTrain struct {
	srcIdx    int
	remaining int
	nextTime  float64 // seconds from window start
	gapMean   float64
	seq       int
	rng       sm64
}

// trainKey is one heap entry: the train's next emission time plus the
// index of its (fat) sourceTrain in the side array. The heap sifts
// 16-byte keys, not 48-byte trains, and one sift runs per emitted
// packet; the sift is hand-rolled rather than container/heap so the
// comparisons inline instead of dispatching through an interface.
type trainKey struct {
	nextTime float64
	idx      int32
}

type trainHeap []trainKey

// siftDown restores the heap property from index i downward.
func (h trainHeap) siftDown(i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && h[r].nextTime < h[l].nextTime {
			m = r
		}
		if h[i].nextTime <= h[m].nextTime {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// init heapifies in O(n).
func (h trainHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

// Stream lazily produces the packets of one telescope window in time
// order. Create with TelescopeStream; drain with Next.
type Stream struct {
	pop       *Population
	start     time.Time
	trains    []sourceTrain
	heap      trainHeap
	active    int
	total     int
	windowSec float64
	emitted   int
	bogonRng  sm64
}

// aggregate packet rate of the synthetic telescope, packets/second; sets
// window durations to Table I-like values (a 2^20-packet window lasts
// ~1000 s, as the paper's 2^30 windows last ~1000 s at real rates).
const packetsPerSecond = 1000.0

// TelescopeStream assembles the window anchored at the given fractional
// month. Every telescope-active source contributes a Poisson-like train
// whose expected length is its (jittered) brightness. The stream ends
// when every train is exhausted; callers wanting a constant-packet
// window stop early at NV valid packets, exactly as the paper's
// samplers do.
func (p *Population) TelescopeStream(month float64, start time.Time) *Stream {
	st := &Stream{
		pop:      p,
		start:    start,
		bogonRng: newSM64(uint64(p.cfg.Seed) ^ monthKey(month)*0xA24BAED4963EE407),
	}
	for i := range p.sources {
		if !p.telescopeActive(i, month) {
			continue
		}
		s := &p.sources[i]
		rng := newSM64(uint64(p.cfg.Seed)*0x9E6C63D0876A9A75 ^ uint64(i)<<20 ^ monthKey(month))
		// Log-normal-ish brightness jitter keeps per-window counts near
		// the persistent brightness without freezing them exactly.
		jitter := math.Exp(0.25 * (rng.float64() + rng.float64() - 1))
		count := int(math.Round(s.Brightness * jitter))
		if count < 1 {
			count = 1
		}
		st.active++
		st.total += count
		st.trains = append(st.trains, sourceTrain{
			srcIdx:    i,
			remaining: count,
			rng:       rng,
		})
	}
	st.windowSec = float64(st.total) / packetsPerSecond
	st.heap = make(trainHeap, len(st.trains))
	for k := range st.trains {
		tr := &st.trains[k]
		tr.gapMean = st.windowSec / float64(tr.remaining+1)
		tr.nextTime = tr.rng.exp(tr.gapMean)
		st.heap[k] = trainKey{nextTime: tr.nextTime, idx: int32(k)}
	}
	st.heap.init()
	return st
}

// ActiveSources reports how many sources contribute to the window.
func (st *Stream) ActiveSources() int { return st.active }

// ExpectedPackets reports the total packets the stream will emit.
func (st *Stream) ExpectedPackets() int { return st.total }

// Emitted reports packets produced so far.
func (st *Stream) Emitted() int { return st.emitted }

// Next fills pkt with the next packet in time order; it returns false
// when the window is exhausted.
func (st *Stream) Next(pkt *pcap.Packet) bool {
	if len(st.heap) == 0 {
		return false
	}
	st.emit(pkt)
	return true
}

// NextBatch fills dst with the next len(dst) packets in time order and
// returns how many were produced (fewer only when the window is
// exhausted). One NextBatch(dst[:n]) call emits exactly the packets n
// Next calls would — same order, same content, same stream position —
// while amortizing the per-packet call overhead; it is what makes a
// Stream an engine.Source.
func (st *Stream) NextBatch(dst []pcap.Packet) int {
	n := 0
	for n < len(dst) && len(st.heap) > 0 {
		st.emit(&dst[n])
		n++
	}
	return n
}

// emit pops the earliest train, synthesizes its packet, and re-sifts the
// heap. The heap must be non-empty.
func (st *Stream) emit(pkt *pcap.Packet) {
	k := &st.heap[0]
	tr := &st.trains[k.idx]
	src := &st.pop.sources[tr.srcIdx]
	st.fill(pkt, src, tr)
	tr.remaining--
	tr.seq++
	if tr.remaining <= 0 {
		n := len(st.heap) - 1
		st.heap[0] = st.heap[n]
		st.heap = st.heap[:n]
	} else {
		tr.nextTime += tr.rng.exp(tr.gapMean)
		k.nextTime = tr.nextTime
	}
	st.heap.siftDown(0)
	st.emitted++
}

// fill synthesizes the packet content for one emission of src.
func (st *Stream) fill(pkt *pcap.Packet, src *Source, tr *sourceTrain) {
	r := &tr.rng
	dark := st.pop.cfg.Darkspace
	*pkt = pcap.Packet{
		Time: st.start.Add(time.Duration(tr.nextTime * float64(time.Second))),
		Src:  src.IP,
		TTL:  uint8(30 + r.intn(210)),
	}
	switch src.Type {
	case Scanner:
		pkt.Proto = pcap.ProtoTCP
		pkt.Flags = pcap.FlagSYN
		if src.Vertical {
			// Vertical campaign: one darkspace host, sequential walk of
			// its port space from a per-source starting offset.
			base := uint64(src.IP) * 0x9E3779B97F4A7C15
			pkt.Dst = dark.Nth(base % dark.Size())
			pkt.SrcPort = uint16(1024 + r.intn(64000))
			pkt.DstPort = uint16(1 + (uint32(base>>40)+uint32(tr.seq))%65535)
		} else {
			// Draw order matters: the horizontal path must consume the
			// rng exactly as the original census generator did, so
			// zero-knob configs emit byte-identical streams.
			pkt.Dst = dark.Nth(uint64(r.intn(int(dark.Size()))))
			pkt.SrcPort = uint16(1024 + r.intn(64000))
			pkt.DstPort = pickScanPort(r)
		}
		pkt.Length = 60
	case Worm:
		pkt.Proto = pcap.ProtoTCP
		pkt.Flags = pcap.FlagSYN
		// Sequential sweep from a per-source starting offset.
		base := uint64(src.IP) * 2654435761
		pkt.Dst = dark.Nth((base + uint64(tr.seq)) % dark.Size())
		pkt.SrcPort = uint16(1024 + r.intn(64000))
		pkt.DstPort = 445
		pkt.Length = 62
	case Backscatter:
		pkt.Proto = pcap.ProtoTCP
		if r.intn(2) == 0 {
			pkt.Flags = pcap.FlagSYN | pcap.FlagACK
		} else {
			pkt.Flags = pcap.FlagRST
		}
		pkt.Dst = dark.Nth(uint64(r.intn(int(dark.Size()))))
		pkt.SrcPort = []uint16{80, 443, 53, 22}[r.intn(4)]
		pkt.DstPort = uint16(1024 + r.intn(64000))
		pkt.Length = 54
	case BotnetKeepalive:
		pkt.Proto = pcap.ProtoUDP
		// A small stable set of rendezvous destinations per source.
		k := uint64(src.IP)*0x9E3779B97F4A7C15 + uint64(r.intn(4))
		pkt.Dst = dark.Nth(k % dark.Size())
		pkt.SrcPort = uint16(1024 + r.intn(64000))
		pkt.DstPort = 53413
		pkt.Length = 40 + r.intn(60)
	default: // Misconfiguration: one fixed wrong destination
		pkt.Proto = pcap.ProtoUDP
		pkt.Dst = dark.Nth(uint64(src.IP) % dark.Size())
		pkt.SrcPort = uint16(1024 + r.intn(64000))
		pkt.DstPort = []uint16{53, 123, 161}[r.intn(3)]
		pkt.Length = 76
	}
	// Bogon pollution the telescope's validity filter must discard.
	if st.bogonRng.float64() < st.pop.cfg.BogonRate {
		pkt.Src = ipaddr.Addr(0x0A000000 | uint32(st.bogonRng.intn(1<<24))) // 10/8
	}
}

// Observation is one honeyfarm sighting of a source during a month.
type Observation struct {
	Src       Source
	Packets   int
	FirstSeen time.Time
	LastSeen  time.Time
}

// HoneyfarmMonth returns the sources that touch the honeyfarm during the
// given integer month, with synthetic conversation metadata. monthStart
// anchors the timestamps.
func (p *Population) HoneyfarmMonth(month int, monthStart time.Time) []Observation {
	visible := make([]int32, 0, len(p.sources))
	for i := range p.sources {
		if p.honeyfarmVisible(i, month) {
			visible = append(visible, int32(i))
		}
	}
	out := make([]Observation, 0, len(visible))
	for _, i := range visible {
		s := p.sources[i]
		r := newSM64(uint64(p.cfg.Seed)*0xD1B54A32D192ED03 ^ uint64(i)<<16 ^ uint64(month))
		first := monthStart.Add(time.Duration(r.float64() * 20 * 24 * float64(time.Hour)))
		span := time.Duration(r.float64() * 9 * 24 * float64(time.Hour))
		out = append(out, Observation{
			Src:       s,
			Packets:   1 + r.intn(40),
			FirstSeen: first,
			LastSeen:  first.Add(span),
		})
	}
	return out
}
