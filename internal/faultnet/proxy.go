package faultnet

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Proxy is a loopback man-in-the-middle for one FOBS endpoint: it binds a
// TCP listener and a UDP socket on the same ephemeral port (the runtime's
// channel layout) and relays both to an upstream address. Datagrams
// travelling client→upstream pass through a Faults injector; the reverse
// (acknowledgement) path is relayed untouched. The control stream can be
// severed mid-transfer and the data path black-holed, simulating the peer
// or the path dying while both processes live.
//
// Point a sender at Proxy.Addr() instead of the real receiver address;
// everything else is unchanged, which is what makes the faults honest —
// the runtime cannot tell it is under test.
//
// A failure can also be scheduled with ScheduleCut, to strike after a set
// number of relayed datagrams. The proxy fires it itself, between two
// datagrams, so it lands at an exact point of the data stream instead of
// racing the transfer's completion the way a cut fired from a peer's
// progress callback does.
type Proxy struct {
	upstream *net.UDPAddr
	tcpAddr  string
	tcp      *net.TCPListener
	udp      *net.UDPConn
	faults   *Faults

	blackhole atomic.Bool

	mu     sync.Mutex
	links  map[string]*net.UDPConn // client addr → upstream data socket
	pipes  []*net.TCPConn          // live control conns, both halves
	closed bool
	// relayed counts client→upstream datagrams handed to the injector;
	// cuts are the scheduled failures still to fire, by ascending After.
	relayed int64
	cuts    []Cut
	fired   int
}

// Cut is a scripted path failure, counted in client→upstream datagrams
// relayed to the injector. With Blackhole set and After below the object's
// packet count, the cut comes before the transfer can complete, by
// construction: no more than After data datagrams get through first.
type Cut struct {
	// After is how many datagrams the proxy relays before the cut; the
	// next datagram meets it.
	After int64
	// Blackhole drops every datagram, both directions, from the cut on.
	Blackhole bool
	// Sever tears down every relayed control connection at the cut.
	Sever bool
	// Heal lifts the black hole this long after the cut; zero keeps it.
	Heal time.Duration
}

// NewProxy builds a proxy in front of the FOBS endpoint at upstream
// (host:port serving both TCP control and UDP data). A nil faults relays
// everything untouched.
func NewProxy(upstream string, faults *Faults) (*Proxy, error) {
	if faults == nil {
		faults = New(Policy{})
	}
	upUDP, err := net.ResolveUDPAddr("udp", upstream)
	if err != nil {
		return nil, fmt.Errorf("faultnet: resolve upstream %q: %w", upstream, err)
	}
	tl, err := net.ListenTCP("tcp", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("faultnet: listen control: %w", err)
	}
	port := tl.Addr().(*net.TCPAddr).Port
	ul, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: port})
	if err != nil {
		tl.Close()
		return nil, fmt.Errorf("faultnet: listen data: %w", err)
	}
	p := &Proxy{
		upstream: upUDP,
		tcpAddr:  upstream,
		tcp:      tl,
		udp:      ul,
		faults:   faults,
		links:    make(map[string]*net.UDPConn),
	}
	go p.acceptLoop()
	go p.dataLoop()
	return p, nil
}

// Addr is the address senders should dial instead of the upstream's.
func (p *Proxy) Addr() string { return p.tcp.Addr().String() }

// Stats reports the injector's counters.
func (p *Proxy) Stats() Stats { return p.faults.Stats() }

// ScheduleCut stages c. Several cuts fire in order of After, each once,
// which is how a flapping link is scripted.
func (p *Proxy) ScheduleCut(c Cut) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cuts = append(p.cuts, c)
	sort.SliceStable(p.cuts, func(i, j int) bool { return p.cuts[i].After < p.cuts[j].After })
}

// CutsFired reports how many scheduled cuts have fired.
func (p *Proxy) CutsFired() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fired
}

// admit counts one client→upstream datagram for relay, first firing the
// next scheduled cut if the count has reached it. It reports whether the
// datagram may still pass.
func (p *Proxy) admit() bool {
	p.mu.Lock()
	if len(p.cuts) == 0 || p.relayed < p.cuts[0].After {
		p.relayed++
		p.mu.Unlock()
		return true
	}
	c := p.cuts[0]
	p.cuts = p.cuts[1:]
	p.fired++
	if !c.Blackhole {
		p.relayed++
	}
	p.mu.Unlock()
	if c.Blackhole {
		p.SetBlackhole(true)
		if c.Heal > 0 {
			time.AfterFunc(c.Heal, func() { p.SetBlackhole(false) })
		}
	}
	if c.Sever {
		p.SeverControl()
	}
	return !c.Blackhole
}

// SetBlackhole toggles total datagram loss in both directions, leaving the
// control stream up: the "path died under the transfer" failure.
func (p *Proxy) SetBlackhole(on bool) { p.blackhole.Store(on) }

// SeverControl tears down every relayed control connection immediately,
// simulating the peer process dying mid-transfer.
func (p *Proxy) SeverControl() {
	p.mu.Lock()
	pipes := p.pipes
	p.pipes = nil
	p.mu.Unlock()
	for _, c := range pipes {
		c.Close()
	}
}

// Close shuts the proxy down.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	links := p.links
	p.links = map[string]*net.UDPConn{}
	p.mu.Unlock()
	p.SeverControl()
	for _, l := range links {
		l.Close()
	}
	p.udp.Close()
	return p.tcp.Close()
}

// acceptLoop relays control connections to the upstream TCP endpoint.
func (p *Proxy) acceptLoop() {
	for {
		cl, err := p.tcp.AcceptTCP()
		if err != nil {
			return
		}
		upRaw, err := net.Dial("tcp", p.tcpAddr)
		if err != nil {
			cl.Close()
			continue
		}
		up := upRaw.(*net.TCPConn)
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			cl.Close()
			up.Close()
			return
		}
		p.pipes = append(p.pipes, cl, up)
		p.mu.Unlock()
		go pipe(up, cl)
		go pipe(cl, up)
	}
}

// pipe relays one direction of a control stream byte-by-byte (control
// frames are tiny; latency matters more than throughput here) and
// half-closes the destination at EOF.
func pipe(dst, src *net.TCPConn) {
	buf := make([]byte, 4096)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if _, werr := dst.Write(buf[:n]); werr != nil {
				break
			}
		}
		if err != nil {
			break
		}
	}
	dst.CloseWrite()
}

// dataLoop relays datagrams from clients toward the upstream endpoint,
// applying the fault policy on the way.
func (p *Proxy) dataLoop() {
	buf := make([]byte, 64<<10)
	for {
		n, from, err := p.udp.ReadFromUDP(buf)
		if err != nil {
			return
		}
		if p.blackhole.Load() || !p.admit() {
			continue
		}
		link := p.link(from)
		if link == nil {
			continue // proxy closing, or upstream dial failed
		}
		p.faults.Apply(buf[:n], func(pkt []byte) {
			// A late (delayed/held) send can race teardown; the error is
			// indistinguishable from loss, which suits a fault injector.
			link.Write(pkt)
		})
	}
}

// link returns the upstream data socket for one client, creating it — and
// its reverse relay — on first use.
func (p *Proxy) link(client *net.UDPAddr) *net.UDPConn {
	key := client.String()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	if l, ok := p.links[key]; ok {
		return l
	}
	l, err := net.DialUDP("udp", nil, p.upstream)
	if err != nil {
		return nil
	}
	p.links[key] = l
	go p.reverseLoop(l, client)
	return l
}

// reverseLoop relays the upstream's responses (acknowledgements) back to
// one client, untouched: loss on the ack path is already exercised by the
// protocol's cumulative bitmap acks, and a clean reverse path keeps the
// injected data-loss rate exact.
func (p *Proxy) reverseLoop(l *net.UDPConn, client *net.UDPAddr) {
	buf := make([]byte, 64<<10)
	for {
		n, err := l.Read(buf)
		if err != nil {
			return
		}
		if p.blackhole.Load() {
			continue
		}
		if _, err := p.udp.WriteToUDP(buf[:n], client); err != nil {
			return
		}
	}
}
