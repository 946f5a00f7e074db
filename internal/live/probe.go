package live

import (
	"encoding/binary"
	"sync"
	"time"

	"iqpaths/internal/transport"
)

// Probe-train roles carried in Message.Stream.
const (
	trainRequest = 0 // prober → responder: one packet of a dispersion train
	trainReply   = 1 // responder → prober: the measured dispersion
)

// RawConn is the transport surface the live probing layer needs: an
// unreliable send path for dispersion trains plus the passive counters
// (RTT, retransmits, sent packets) the ARQ machinery maintains for free.
// *transport.RUDPConn implements it; tests use fakes.
type RawConn interface {
	// WriteRaw transmits m once. Like transport.Conn's Send, it must
	// serialize m before returning and retain neither m nor its Payload:
	// probers and responders reuse both across calls.
	WriteRaw(m *transport.Message) error
	SetRawHandler(fn func(*transport.Message))
	RTT() time.Duration
	Retransmits() uint64
	SentSeq() uint64
}

// Bind installs one raw handler on conn dispatching probe-train traffic:
// requests to r, replies to p. Either may be nil (a pure source binds only
// a prober; a pure sink only a responder).
func Bind(conn RawConn, p *Prober, r *Responder) {
	conn.SetRawHandler(func(m *transport.Message) {
		switch m.Stream {
		case trainRequest:
			if r != nil {
				r.HandleRequest(m)
			}
		case trainReply:
			if p != nil {
				p.HandleReply(m)
			}
		}
	})
}

// packTrainMeta packs a packet's index and the train's total count into
// the Frame field.
func packTrainMeta(index, count int) uint64 {
	return uint64(index)<<32 | uint64(uint32(count))
}

// unpackTrainMeta reverses packTrainMeta.
func unpackTrainMeta(f uint64) (index, count int) {
	return int(f >> 32), int(uint32(f))
}

// ProberConfig tunes a Prober.
type ProberConfig struct {
	// IntervalSec is the time between probe rounds (default 0.25): one
	// train plus one passive sample per round. A ProberSet rounds at its
	// probers' interval. The paper's monitors want
	// hundreds of samples per window-history, so intervals in the
	// 100–500 ms range warm a 64-sample CDF inside seconds.
	IntervalSec float64
	// TrainPackets is the probes per train (default 16). Dispersion uses
	// the (TrainPackets−1) inter-arrival gaps.
	// knob: TestProbeTrainDispersion and the ProberSet tests count the
	// frames of 2- and 4-packet trains.
	TrainPackets int
}

// probeBytes is the payload size per probe.
const probeBytes = 1200

// ProbeConfig is the historical name for ProberConfig, kept as an alias
// for existing call sites.
type ProbeConfig = ProberConfig

func (c *ProberConfig) fillDefaults() {
	if c.IntervalSec <= 0 {
		c.IntervalSec = 0.25
	}
	if c.TrainPackets < 2 {
		c.TrainPackets = 16
	}
}

// Prober measures one live path: packet-train dispersion probes (the
// pathload-class estimator monitor.Train runs over simnet, here over real
// sockets) plus passive RTT and loss sampling from the RUDP connection's
// own counters; a ProberSet paces its rounds. Results flow to the callbacks, which typically are the
// driver's Observe* methods for the matching path index — closing the
// loop that keeps the CDF predictors driven by measured data.
type Prober struct {
	cfg   ProberConfig
	clock Clock
	conn  RawConn

	// OnBandwidth, OnRTT, OnLoss receive samples; nil callbacks drop
	// them. They are called from the probe goroutine and the connection's
	// demux goroutine.
	OnBandwidth func(mbps float64)
	OnRTT       func(sec float64)
	OnLoss      func(rate float64)

	mu       sync.Mutex
	trainID  uint64
	sent     uint64 // trains sent
	got      uint64 // replies received
	lastSent uint64
	lastRetx uint64

	// trainMu serializes ProbeOnce over train, the one wire message (and
	// pad) every packet of every train is written from.
	trainMu sync.Mutex
	train   transport.Message
}

// NewProber builds a prober over conn using clock for pacing.
func NewProber(cfg ProberConfig, clock Clock, conn RawConn) *Prober {
	cfg.fillDefaults()
	if clock == nil {
		clock = NewWallClock()
	}
	return &Prober{cfg: cfg, clock: clock, conn: conn, train: transport.Message{
		Kind:    transport.KindTrain,
		Stream:  trainRequest,
		Payload: make([]byte, probeBytes),
	}}
}

// Trains returns (trains sent, replies received).
func (p *Prober) Trains() (sent, replies uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sent, p.got
}

// ProbeOnce injects one dispersion train at line rate. The responder
// measures the arrival spread and replies; HandleReply converts it to an
// available-bandwidth sample. Concurrent calls send their trains one
// after the other.
func (p *Prober) ProbeOnce() error {
	p.trainMu.Lock()
	defer p.trainMu.Unlock()
	p.mu.Lock()
	p.trainID++
	p.train.Seq = p.trainID
	p.sent++
	p.mu.Unlock()
	for i := 0; i < p.cfg.TrainPackets; i++ {
		p.train.Frame = packTrainMeta(i, p.cfg.TrainPackets)
		if err := p.conn.WriteRaw(&p.train); err != nil {
			return err
		}
	}
	return nil
}

// probeDatagramBits is the wire size of one probe datagram in bits as a
// shaping relay sees it (transport header + payload).
func (p *Prober) probeDatagramBits() float64 {
	return float64(transport.DatagramOverhead+probeBytes) * 8
}

// HandleReply consumes one responder measurement: a train of got packets
// whose arrivals spread over spreadNanos. The dispersion estimate uses
// the got−1 inter-arrival gaps:
//
//	avail ≈ (got−1) · packet bits / spread
//
// matching a token-bucket bottleneck whose departures are spaced by
// bits/rate.
func (p *Prober) HandleReply(m *transport.Message) {
	spreadNanos, got, _, ok := unmarshalTrainReply(m.Payload)
	if !ok {
		return
	}
	p.mu.Lock()
	p.got++
	p.mu.Unlock()
	if got < 2 || spreadNanos <= 0 {
		return
	}
	bits := float64(got-1) * p.probeDatagramBits()
	mbps := bits / (float64(spreadNanos) / 1e9) / 1e6
	if p.OnBandwidth != nil {
		p.OnBandwidth(mbps)
	}
}

// SamplePassive reads the connection's free measurements: the smoothed
// RTT, and the retransmit fraction of packets sent since the last sample
// as a loss-rate proxy.
func (p *Prober) SamplePassive() {
	if rtt := p.conn.RTT(); rtt > 0 && p.OnRTT != nil {
		p.OnRTT(rtt.Seconds())
	}
	sent := p.conn.SentSeq()
	retx := p.conn.Retransmits()
	p.mu.Lock()
	dSent := sent - p.lastSent
	dRetx := retx - p.lastRetx
	p.lastSent = sent
	p.lastRetx = retx
	p.mu.Unlock()
	if dSent == 0 {
		return
	}
	rate := float64(dRetx) / float64(dSent+dRetx)
	if rate > 1 {
		rate = 1
	}
	if p.OnLoss != nil {
		p.OnLoss(rate)
	}
}

// Responder is the sink side of the dispersion protocol: it timestamps
// train arrivals and reports (spread, got, count) back to the prober. One
// Responder serves one connection.
type Responder struct {
	clock Clock
	conn  RawConn
	// GapTimeout finalizes a train that lost its tail (default 500 ms).
	GapTimeout time.Duration

	mu sync.Mutex
	// cur is the train being timed, reset in place when a new one begins
	// (valid once started is set); finished trains reply from copies.
	cur     trainState
	started bool
	// armed is set while the one gap-timeout goroutine is pending.
	armed bool

	// replyMu serializes reply over replyMsg, the reused wire message
	// (and 16-byte payload) of every reply: the demux goroutine and the
	// gap watcher both send them.
	replyMu  sync.Mutex
	replyMsg transport.Message
}

type trainState struct {
	id       uint64
	count    uint32
	got      uint32
	haveTime bool
	first    time.Duration
	last     time.Duration
	// deadline is when the train is finalized if its tail never arrives.
	deadline time.Duration
	done     bool
}

// NewResponder builds a responder replying over conn.
func NewResponder(clock Clock, conn RawConn) *Responder {
	if clock == nil {
		clock = NewWallClock()
	}
	return &Responder{clock: clock, conn: conn, GapTimeout: 500 * time.Millisecond, replyMsg: transport.Message{
		Kind:    transport.KindTrain,
		Stream:  trainReply,
		Payload: make([]byte, trainReplyBytes),
	}}
}

// HandleRequest consumes one train packet, finalizing the previous train
// if a new one begins, and the current one when it completes. One timeout
// goroutine covers trains that lose their tail; however many trains a
// peer starts, at most one is pending.
func (r *Responder) HandleRequest(m *transport.Message) {
	now := r.clock.Now()
	_, count := unpackTrainMeta(m.Frame)
	var finish, complete trainState
	r.mu.Lock()
	if !r.started || r.cur.id != m.Seq {
		if r.started && !r.cur.done {
			r.cur.done = true
			finish = r.cur
		}
		r.started = true
		r.cur = trainState{id: m.Seq, count: uint32(count), deadline: now + r.GapTimeout}
		if !r.armed {
			r.armed = true
			go r.watchGap(r.GapTimeout)
		}
	}
	st := &r.cur
	st.got++
	if !st.haveTime {
		st.haveTime = true
		st.first = now
	}
	st.last = now
	if st.got >= st.count && !st.done {
		st.done = true
		complete = *st
	}
	r.mu.Unlock()
	if finish.done {
		r.reply(finish)
	}
	if complete.done {
		r.reply(complete)
	}
}

// watchGap waits out the current train's gap timeout and closes the
// train if it is still pending (lost tail). When a newer train began
// while it waited, it re-arms for that train's deadline instead.
func (r *Responder) watchGap(wait time.Duration) {
	for {
		<-r.clock.After(wait)
		r.mu.Lock()
		var finish trainState
		if st := &r.cur; !st.done {
			if now := r.clock.Now(); now < st.deadline {
				wait = st.deadline - now
				r.mu.Unlock()
				continue
			}
			st.done = true
			finish = *st
		}
		r.armed = false
		r.mu.Unlock()
		if finish.done {
			r.reply(finish)
		}
		return
	}
}

// reply reports one finalized train to the prober.
func (r *Responder) reply(st trainState) {
	if st.got < 2 {
		return // nothing measurable; the prober's train counter notices
	}
	spread := st.last - st.first
	r.replyMu.Lock()
	defer r.replyMu.Unlock()
	r.replyMsg.Seq = st.id
	putTrainReply(r.replyMsg.Payload, int64(spread), st.got, st.count)
	_ = r.conn.WriteRaw(&r.replyMsg)
}

// trainReplyBytes is the payload size of a train reply.
const trainReplyBytes = 16

// putTrainReply encodes (spreadNanos, got, count) into buf, which holds
// trainReplyBytes.
func putTrainReply(buf []byte, spreadNanos int64, got, count uint32) {
	binary.LittleEndian.PutUint64(buf, uint64(spreadNanos))
	binary.LittleEndian.PutUint32(buf[8:], got)
	binary.LittleEndian.PutUint32(buf[12:], count)
}

// unmarshalTrainReply decodes putTrainReply's layout.
func unmarshalTrainReply(b []byte) (spreadNanos int64, got, count uint32, ok bool) {
	if len(b) != trainReplyBytes {
		return 0, 0, 0, false
	}
	return int64(binary.LittleEndian.Uint64(b)),
		binary.LittleEndian.Uint32(b[8:]),
		binary.LittleEndian.Uint32(b[12:]),
		true
}
