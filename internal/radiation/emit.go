package radiation

import (
	"math"
	"time"

	"repro/internal/ipaddr"
	"repro/internal/pcap"
	"repro/internal/radix"
)

// emit.go turns the population into packet streams. A telescope window
// is the time-ordered interleaving of per-source packet trains. The
// stream is generated one time chunk at a time, so a multi-million
// packet window never materializes in memory: every live train, in
// train order, emits its packets due before the chunk's end, and the
// chunk is sorted into (time, train index) order (refill). Each train
// draws from its own rng and the one stream-wide draw runs in output
// order, so emitting train by train instead of packet by packet changes
// no packet.

// commonScanPorts are the services Internet-wide scanners probe most,
// with rough popularity weights summing to scanPortTotal.
var commonScanPorts = []struct {
	port   uint16
	weight int
}{
	{23, 20}, {2323, 8}, {445, 14}, {80, 12}, {8080, 6}, {443, 8},
	{22, 8}, {3389, 7}, {5555, 4}, {1433, 3}, {3306, 3}, {25, 2},
	{21, 2}, {5900, 2}, {123, 1},
}

const scanPortTotal = 100

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

// sourceTrain is one active source's packet train: the source fields
// its packets carry, and its position in the window.
type sourceTrain struct {
	ip        ipaddr.Addr
	vertical  bool
	typ       Archetype
	remaining int
	nextTime  float64 // seconds from window start
	gapMean   float64
	seq       int
	rng       sm64
}

// event is one emitted packet but its time.
type event struct {
	src, dst         ipaddr.Addr
	srcPort, dstPort uint16
	length           uint16
	proto            pcap.IPProto
	flags            pcap.TCPFlags
	ttl              uint8
}

// Stream lazily produces the packets of one telescope window in time
// order. Create with TelescopeStream; drain with Next or NextBatch.
type Stream struct {
	start     time.Time
	darkBase  ipaddr.Addr // the darkspace's network address
	darkMask  uint64      // darkspace size - 1: a prefix's size is a power of two
	bogonRate float64
	trains    []sourceTrain // the live trains, in train order
	due       float64       // earliest next emission of a live train

	// The current chunk: its emission times and events in emission
	// order, the permutation that sorts them, and the cursor. pos, pbuf,
	// idx and ibuf are the sort's keys and scratch. An event holds no
	// pointer, so the chunk is nothing for the garbage collector to scan.
	times     []float64
	evs       []event
	order     []uint32
	at        int
	pos, pbuf []uint32
	idx, ibuf []uint32

	active   int
	total    int
	emitted  int
	bogonRng sm64
}

// aggregate packet rate of the synthetic telescope, packets/second; sets
// window durations to Table I-like values (a 2^20-packet window lasts
// ~1000 s, as the paper's 2^30 windows last ~1000 s at real rates).
const packetsPerSecond = 1000.0

// A chunk spans chunkSeconds of stream time: about chunkPackets
// packets, small enough that the sort's passes stay in cache.
const (
	chunkPackets = 8192
	chunkSeconds = chunkPackets / packetsPerSecond
	// positionsPerSecond quantizes a time's offset into its chunk to
	// 16 bits: the chunk's sort key.
	positionsPerSecond = (1 << 16) / chunkSeconds
)

// TelescopeStream assembles the window anchored at the given fractional
// month. Every telescope-active source contributes a Poisson-like train
// whose expected length is its (jittered) brightness. The stream ends
// when every train is exhausted; callers wanting a constant-packet
// window stop early at NV valid packets, exactly as the paper's
// samplers do.
func (p *Population) TelescopeStream(month float64, start time.Time) *Stream {
	dark := p.cfg.Darkspace
	st := &Stream{
		start:     start,
		darkBase:  dark.Nth(0),
		darkMask:  dark.Size() - 1,
		bogonRate: p.cfg.BogonRate,
		bogonRng:  newSM64(uint64(p.cfg.Seed) ^ monthKey(month)*0xA24BAED4963EE407),
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
			ip:        s.IP,
			vertical:  s.Vertical,
			typ:       s.Type,
			remaining: count,
			rng:       rng,
		})
	}
	windowSec := float64(st.total) / packetsPerSecond
	st.due = math.Inf(1)
	for k := range st.trains {
		tr := &st.trains[k]
		tr.gapMean = windowSec / float64(tr.remaining+1)
		tr.nextTime = tr.rng.exp(tr.gapMean)
		st.due = min(st.due, tr.nextTime)
	}
	// A chunk holds chunkPackets packets give or take a few hundred; a
	// rare fuller one grows the buffers.
	c := min(st.total, chunkPackets+chunkPackets/4)
	st.times, st.evs = make([]float64, 0, c), make([]event, 0, c)
	st.pos, st.pbuf = make([]uint32, c), make([]uint32, c)
	st.idx, st.ibuf = make([]uint32, c), make([]uint32, c)
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
	if st.at == len(st.order) && !st.refill() {
		return false
	}
	o := st.order[st.at]
	st.packet(pkt, st.times[o], &st.evs[o])
	st.at++
	st.emitted++
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
	for n < len(dst) {
		if st.at == len(st.order) && !st.refill() {
			break
		}
		m := min(len(dst)-n, len(st.order)-st.at)
		order := st.order[st.at : st.at+m]
		out := dst[n : n+m]
		for i, o := range order {
			st.packet(&out[i], st.times[o], &st.evs[o])
		}
		st.at += m
		n += m
	}
	st.emitted += n
	return n
}

// refill generates and sorts the next chunk; it returns false when every
// train is exhausted. The chunk starts at the earliest due emission, so
// it is never empty, and ends chunkSeconds later: every live train, in
// train order, emits each packet due before that end. Trains that run
// out leave the live set, which keeps the rest in train order.
//
// The chunk's order is (time, train index). A stable radix sort by each
// time's 16-bit position in the chunk, a non-decreasing function of the
// time, gets there but for the few packets that share a position; one
// insertion pass, stable too, orders those by exact time.
func (st *Stream) refill() bool {
	if len(st.trains) == 0 {
		return false
	}
	lo := st.due
	end := lo + chunkSeconds
	times, evs := st.times[:0], st.evs[:0]
	live := st.trains[:0]
	due := math.Inf(1)
	for _, tr := range st.trains {
		for tr.remaining > 0 && tr.nextTime < end {
			times = append(times, tr.nextTime)
			evs = append(evs, event{})
			st.step(&tr, &evs[len(evs)-1])
		}
		if tr.remaining > 0 {
			live = append(live, tr)
			due = min(due, tr.nextTime)
		}
	}
	st.trains, st.due = live, due
	st.times, st.evs = times, evs

	n := len(times)
	st.pos, st.pbuf = radix.Grow(st.pos, n), radix.Grow(st.pbuf, n)
	st.idx, st.ibuf = radix.Grow(st.idx, n), radix.Grow(st.ibuf, n)
	for i, t := range times {
		st.pos[i] = uint32((t - lo) * positionsPerSecond)
		st.idx[i] = uint32(i)
	}
	_, order := radix.SortPairs(st.pos, st.idx, st.pbuf, st.ibuf)
	for i := 1; i < n; i++ {
		o, t := order[i], times[order[i]]
		j := i
		for ; j > 0 && times[order[j-1]] > t; j-- {
			order[j] = order[j-1]
		}
		order[j] = o
	}
	st.order, st.at = order, 0
	return true
}

// step is one emission of a live train into ev: the packet's draws,
// then the gap to the train's next packet.
func (st *Stream) step(tr *sourceTrain, ev *event) {
	st.fill(tr, ev)
	tr.remaining--
	tr.seq++
	if tr.remaining > 0 {
		tr.nextTime += tr.rng.exp(tr.gapMean)
	}
}

// packet writes the emission at time t as the stream's next packet.
// The stream-wide bogon draw runs here, once a packet in stream order.
func (st *Stream) packet(pkt *pcap.Packet, t float64, ev *event) {
	*pkt = pcap.Packet{
		Time:    st.start.Add(time.Duration(t * float64(time.Second))),
		Src:     ev.src,
		Dst:     ev.dst,
		Proto:   ev.proto,
		SrcPort: ev.srcPort,
		DstPort: ev.dstPort,
		Flags:   ev.flags,
		TTL:     ev.ttl,
		Length:  int(ev.length),
	}
	// Bogon pollution the telescope's validity filter must discard.
	if st.bogonRng.float64() < st.bogonRate {
		pkt.Src = ipaddr.Addr(0x0A000000 | uint32(st.bogonRng.intn(1<<24))) // 10/8
	}
}

// dark returns darkspace address i modulo the darkspace size.
func (st *Stream) dark(i uint64) ipaddr.Addr { return st.darkBase | ipaddr.Addr(i&st.darkMask) }

// fill synthesizes the packet content of one emission of tr.
func (st *Stream) fill(tr *sourceTrain, ev *event) {
	r := &tr.rng
	*ev = event{src: tr.ip, ttl: uint8(30 + r.intn(210))}
	switch tr.typ {
	case Scanner:
		ev.proto = pcap.ProtoTCP
		ev.flags = pcap.FlagSYN
		if tr.vertical {
			// Vertical campaign: one darkspace host, sequential walk of
			// its port space from a per-source starting offset.
			base := uint64(tr.ip) * 0x9E3779B97F4A7C15
			ev.dst = st.dark(base)
			ev.srcPort = uint16(1024 + r.intn(64000))
			ev.dstPort = uint16(1 + (uint32(base>>40)+uint32(tr.seq))%65535)
		} else {
			// Draw order matters: the horizontal path must consume the
			// rng exactly as the original census generator did, so
			// zero-knob configs emit byte-identical streams.
			ev.dst = st.dark(r.next())
			ev.srcPort = uint16(1024 + r.intn(64000))
			ev.dstPort = pickScanPort(r)
		}
		ev.length = 60
	case Worm:
		ev.proto = pcap.ProtoTCP
		ev.flags = pcap.FlagSYN
		// Sequential sweep from a per-source starting offset.
		base := uint64(tr.ip) * 2654435761
		ev.dst = st.dark(base + uint64(tr.seq))
		ev.srcPort = uint16(1024 + r.intn(64000))
		ev.dstPort = 445
		ev.length = 62
	case Backscatter:
		ev.proto = pcap.ProtoTCP
		if r.intn(2) == 0 {
			ev.flags = pcap.FlagSYN | pcap.FlagACK
		} else {
			ev.flags = pcap.FlagRST
		}
		ev.dst = st.dark(r.next())
		ev.srcPort = [...]uint16{80, 443, 53, 22}[r.intn(4)]
		ev.dstPort = uint16(1024 + r.intn(64000))
		ev.length = 54
	case BotnetKeepalive:
		ev.proto = pcap.ProtoUDP
		// A small stable set of rendezvous destinations per source.
		ev.dst = st.dark(uint64(tr.ip)*0x9E3779B97F4A7C15 + uint64(r.intn(4)))
		ev.srcPort = uint16(1024 + r.intn(64000))
		ev.dstPort = 53413
		ev.length = uint16(40 + r.intn(60))
	default: // Misconfiguration: one fixed wrong destination
		ev.proto = pcap.ProtoUDP
		ev.dst = st.dark(uint64(tr.ip))
		ev.srcPort = uint16(1024 + r.intn(64000))
		ev.dstPort = [...]uint16{53, 123, 161}[r.intn(3)]
		ev.length = 76
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
	visible := p.visibleIn(month)
	out := make([]Observation, len(visible))
	for k, i := range visible {
		o := &out[k]
		o.Src = p.sources[i]
		r := newSM64(uint64(p.cfg.Seed)*0xD1B54A32D192ED03 ^ uint64(i)<<16 ^ uint64(month))
		o.FirstSeen = monthStart.Add(time.Duration(r.float64() * 20 * 24 * float64(time.Hour)))
		o.LastSeen = o.FirstSeen.Add(time.Duration(r.float64() * 9 * 24 * float64(time.Hour)))
		o.Packets = 1 + r.intn(40)
	}
	return out
}

// HoneyfarmAddrs returns the addresses of the sources that touch the
// honeyfarm during the given integer month, in HoneyfarmMonth's order:
// its observations' Src.IP, with no metadata drawn.
func (p *Population) HoneyfarmAddrs(month int) []ipaddr.Addr {
	visible := p.visibleIn(month)
	addrs := make([]ipaddr.Addr, len(visible))
	for k, i := range visible {
		addrs[k] = p.beams[i].ip
	}
	return addrs
}
