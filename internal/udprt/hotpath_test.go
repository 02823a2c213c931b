package udprt

import (
	"io"
	"net"
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/batchio"
	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/flight"
	"github.com/hpcnet/fobs/internal/metrics"
	"github.com/hpcnet/fobs/internal/obs"
	"github.com/hpcnet/fobs/internal/wire"
)

// eachInstrumentation runs fn with instrumentation off (nil handles, the
// zero-configuration default), with live metrics, with metrics plus a
// flight recording, and with every layer plus a span recorder, so every
// hot-path allocation gate also proves all three instrumentation layers
// allocation-free.
func eachInstrumentation(t *testing.T, role metrics.Role, packets int, fn func(t *testing.T, tm *metrics.Transfer, fr *flight.Recorder, or *obs.Recorder)) {
	t.Run("bare", func(t *testing.T) { fn(t, nil, nil, nil) })
	startTM := func() *metrics.Transfer {
		reg := metrics.New()
		if role == metrics.RoleSender {
			return reg.StartSender(0, packets, int64(packets)*1024)
		}
		return reg.StartReceiver(0, packets, int64(packets)*1024)
	}
	startFR := func(log *flight.Log) *flight.Recorder {
		if role == metrics.RoleSender {
			return log.StartSender(0, packets, int64(packets)*1024, 1024, 0)
		}
		return log.StartReceiver(0, packets, int64(packets)*1024, 1024)
	}
	t.Run("metrics", func(t *testing.T) { fn(t, startTM(), nil, nil) })
	t.Run("recorded", func(t *testing.T) {
		log := flight.NewLog(io.Discard)
		defer log.Close()
		fn(t, startTM(), startFR(log), nil)
	})
	t.Run("traced", func(t *testing.T) {
		log := flight.NewLog(io.Discard)
		defer log.Close()
		span := obs.NewLog(io.Discard)
		defer span.Close()
		orole := obs.RoleSender
		if role != metrics.RoleSender {
			orole = obs.RoleReceiver
		}
		fn(t, startTM(), startFR(log), span.Start(obs.NewTraceID(), 0, orole))
	})
}

// TestSenderHotPathZeroAllocs measures the sender's steady-state per-batch
// work — consult the congestion controller for the round plan, pull packets
// from the schedule, note them in the metrics, encode into the ring, flush,
// feed the controller the round's loss classification — exactly as the
// sender engine performs it, and requires zero allocations on both socket
// paths, with and without metrics, under every congestion policy.
func TestSenderHotPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	eachIOPath(t, func(t *testing.T, noFastPath bool) {
		for _, policy := range CongestionPolicies() {
			t.Run("cc="+policy, func(t *testing.T) {
				eachInstrumentation(t, metrics.RoleSender, 1<<20/1024, func(t *testing.T, tm *metrics.Transfer, fr *flight.Recorder, or *obs.Recorder) {
					rcv, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
					if err != nil {
						t.Fatal(err)
					}
					defer rcv.Close()
					conn, err := net.DialUDP("udp", nil, rcv.LocalAddr().(*net.UDPAddr))
					if err != nil {
						t.Fatal(err)
					}
					defer conn.Close()
					conn.SetWriteBuffer(4 << 20)
					stop := make(chan struct{})
					drained := make(chan struct{})
					go func() { // keep the socket writable; its allocs are not measured
						defer close(drained)
						buf := make([]byte, 2048)
						for {
							select {
							case <-stop:
								return
							default:
							}
							rcv.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
							rcv.Read(buf)
						}
					}()
					defer func() { close(stop); <-drained }()

					snd := core.NewSender(makeObj(1<<20), core.Config{PacketSize: 1024})
					cfg := snd.Config()
					cc := newController(policy, cfg, Options{})
					tx, err := batchio.NewSender(conn, 16, !noFastPath)
					if err != nil {
						t.Fatal(err)
					}
					ring := newSendRing(16, cfg.PacketSize)
					// With no acks the circular schedule supplies
					// retransmissions forever, so every run encodes and
					// flushes a controller-planned batch. The loss feedback
					// runs live (a no-ack run is all retransmissions), so
					// window policies are measured at their smallest batch
					// too.
					ccRetx := 0
					if allocs := testing.AllocsPerRun(300, func() {
						// The span recorder's steady-state cost: one latched
						// Once per round, as the engine loop pays it.
						or.Once(obs.KindRounds, 0)
						batch, gapPer := planRound(len(ring), cc)
						if gapPer < 0 {
							t.Fatal("negative pacing gap")
						}
						k, firstSeq := encodeBatch(snd, ring, batch, tm, fr, 0)
						if k != batch {
							t.Fatalf("encodeBatch = %d, want %d", k, batch)
						}
						snd.Acked(firstSeq) // the engine's probe resolution check
						if _, err := tx.Send(ring[:k]); err != nil {
							t.Fatalf("Send: %v", err)
						}
						if st := snd.Stats(); st.Retransmits > ccRetx {
							cc.OnLoss(LossEvent{Retransmits: st.Retransmits - ccRetx})
							ccRetx = st.Retransmits
						}
					}); allocs > 0 {
						t.Errorf("sender plan+encode+flush allocates %.1f times per batch, want 0", allocs)
					}
					if tm != nil {
						s := tm.Snapshot()
						if s.PacketsSent == 0 || s.PacketsSent != s.PacketsNeeded+s.Retransmits {
							t.Errorf("metrics conservation: sent=%d needed=%d retx=%d",
								s.PacketsSent, s.PacketsNeeded, s.Retransmits)
						}
					}
				})
			})
		}
	})
}

// TestReceiverHotPathZeroAllocs measures the receiver's steady-state
// per-wakeup work — drain the socket, decode each datagram, place it,
// classify it for the metrics, serialize and send the acknowledgement, then
// stream the CHECK content verdict over the placed prefix — as
// runReceiveLoop performs it, and requires zero allocations on both socket
// paths, with and without metrics.
func TestReceiverHotPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	eachIOPath(t, func(t *testing.T, noFastPath bool) {
		eachInstrumentation(t, metrics.RoleReceiver, 1<<20/1024, func(t *testing.T, tm *metrics.Transfer, fr *flight.Recorder, or *obs.Recorder) {
			udp, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				t.Fatal(err)
			}
			defer udp.Close()
			udp.SetReadBuffer(4 << 20)
			feeder, err := net.DialUDP("udp", nil, udp.LocalAddr().(*net.UDPAddr))
			if err != nil {
				t.Fatal(err)
			}
			defer feeder.Close()

			const packetSize = 1024
			snd := core.NewSender(makeObj(1<<20), core.Config{PacketSize: packetSize})
			rcv := core.NewReceiver(snd.ObjectSize(), core.Config{
				PacketSize:   packetSize,
				AckFrequency: 4,
			})
			ftx, err := batchio.NewSender(feeder, 8, !noFastPath)
			if err != nil {
				t.Fatal(err)
			}
			feed := newSendRing(8, packetSize)
			rx, err := batchio.NewReceiver(udp, 8, maxDatagram, !noFastPath)
			if err != nil {
				t.Fatal(err)
			}
			ackBuf := make([]byte, 0, rcv.Config().AckPacketSize+wire.AckHeaderLen)
			// CHECK on: a dedup-permitting announcement, so every advance
			// hashes and stages for the cache.
			cv := newContentVerifier(recvPlan{
				objectSize:  uint64(snd.ObjectSize()),
				packetSize:  packetSize,
				hasCheck:    true,
				checkDigest: snd.ContentID(),
				checkDedup:  true,
			}, rcv.Object(), []*core.Receiver{rcv}, newContentCache(Options{}))
			udp.SetReadDeadline(time.Time{})

			// The feeding sends run in this goroutine too, but the sender side
			// is proven allocation-free by TestSenderHotPathZeroAllocs.
			if allocs := testing.AllocsPerRun(300, func() {
				k, _ := encodeBatch(snd, feed, len(feed), nil, nil, 0)
				if _, err := ftx.Send(feed[:k]); err != nil {
					t.Fatalf("feed: %v", err)
				}
				udp.SetReadDeadline(time.Now().Add(2 * time.Second))
				got := 0
				for got < k {
					n, err := rx.Recv()
					if err != nil {
						t.Fatalf("Recv: %v", err)
					}
					for i := 0; i < n; i++ {
						d, err := wire.DecodeData(rx.Datagram(i))
						if err != nil {
							t.Fatalf("decode: %v", err)
						}
						// The receive loop's per-datagram span cost.
						or.Once(obs.KindRounds, 0)
						before := rcv.Stats()
						ackDue, err := rcv.HandleData(d)
						noteReceiverDelta(tm, fr, d.Seq, before, rcv.Stats(), len(d.Payload))
						if err != nil {
							t.Fatalf("place: %v", err)
						}
						if ackDue {
							a := rcv.BuildAck()
							ackBuf = wire.AppendAck(ackBuf[:0], &a)
							if _, err := udp.WriteToUDPAddrPort(ackBuf, rx.Addr(i)); err != nil {
								t.Fatalf("ack write: %v", err)
							}
							tm.NoteAckSent(len(ackBuf))
							fr.AckSent(a.AckSeq, int(a.Received), len(ackBuf))
						}
					}
					got += n
					cv.advance()
				}
			}); allocs > 0 {
				t.Errorf("receiver drain+place+ack+verify allocates %.1f times per wakeup, want 0", allocs)
			}
			if cv.done == 0 {
				t.Error("the content verifier hashed nothing during the gate")
			}
			if tm != nil {
				s := tm.Snapshot()
				if s.DataDemuxed == 0 || s.Fresh+s.Duplicates+s.Rejected != s.DataDemuxed {
					t.Errorf("metrics conservation: fresh=%d dup=%d rej=%d demux=%d",
						s.Fresh, s.Duplicates, s.Rejected, s.DataDemuxed)
				}
			}
		})
	})
}
