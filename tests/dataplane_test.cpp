// Tests for the data-plane memory layer (DESIGN.md §5h): slab packet pool
// recycling and growth, intrusive FIFO ordering under priority service,
// batched event dispatch against a reference heap, and the steady-state
// no-regrowth guarantee the harness audits.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/packet.hpp"
#include "sim/pipe.hpp"
#include "sim/queue.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace pnet::sim {
namespace {

// ------------------------------------------------------------- slab pool

TEST(PacketPoolTest, RecycledPacketKeepsSlotIdentityAndResetsFields) {
  PacketPool pool;
  Packet* p = pool.allocate();
  const PacketRef ref = p->ref();
  ASSERT_FALSE(ref.null());

  // Dirty every mutable field of the first lifetime.
  OwnedRoute route({});
  p->next = p;
  p->route = &route;
  p->seq = 0xDEAD;
  p->ack_seq = 0xBEEF;
  p->ts_echo = 123;
  p->due = 456;
  p->flow = FlowId{7};
  p->size_bytes = 1500;
  p->next_hop = 3;
  p->subflow = 2;
  p->is_ack = true;
  p->retransmitted = true;
  p->ecn_ce = true;
  p->ecn_echo = true;
  p->trimmed = true;
  p->is_nack = true;

  pool.free(p);
  Packet* q = pool.allocate();

  // LIFO free list: the same slab slot comes back, same address and ref.
  EXPECT_EQ(q, p);
  EXPECT_EQ(q->ref(), ref);
  EXPECT_EQ(&pool.get(ref), q);

  // ...but as a fully reset packet (compare against a fresh default).
  const Packet fresh;
  EXPECT_EQ(q->next, fresh.next);
  EXPECT_EQ(q->route, fresh.route);
  EXPECT_EQ(q->seq, fresh.seq);
  EXPECT_EQ(q->ack_seq, fresh.ack_seq);
  EXPECT_EQ(q->ts_echo, fresh.ts_echo);
  EXPECT_EQ(q->due, fresh.due);
  EXPECT_EQ(q->flow.v, fresh.flow.v);
  EXPECT_EQ(q->size_bytes, fresh.size_bytes);
  EXPECT_EQ(q->next_hop, fresh.next_hop);
  EXPECT_EQ(q->subflow, fresh.subflow);
  EXPECT_EQ(q->is_ack, fresh.is_ack);
  EXPECT_EQ(q->retransmitted, fresh.retransmitted);
  EXPECT_EQ(q->ecn_ce, fresh.ecn_ce);
  EXPECT_EQ(q->ecn_echo, fresh.ecn_echo);
  EXPECT_EQ(q->trimmed, fresh.trimmed);
  EXPECT_EQ(q->is_nack, fresh.is_nack);
}

TEST(PacketPoolTest, CountersTrackLiveAndAllocatedAcrossSlabGrowth) {
  PacketPool pool;
  EXPECT_EQ(pool.allocated(), 0u);
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_EQ(pool.slabs(), 0u);

  // Allocate past one slab so a second is carved; addresses must be stable
  // (slab growth never moves existing packets) and refs resolvable.
  constexpr std::size_t kCount = PacketPool::kSlabPackets + 100;
  std::vector<Packet*> live;
  live.reserve(kCount);
  for (std::size_t i = 0; i < kCount; ++i) live.push_back(pool.allocate());

  EXPECT_EQ(pool.allocated(), kCount);
  EXPECT_EQ(pool.live(), kCount);
  EXPECT_EQ(pool.slabs(), 2u);
  EXPECT_EQ(pool.slab_bytes(), 2 * PacketPool::kSlabPackets * sizeof(Packet));
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(&pool.get(live[i]->ref()), live[i]);
  }

  // Freeing shrinks live() but never allocated() (slots stay carved).
  for (std::size_t i = 0; i < 100; ++i) pool.free(live[i]);
  EXPECT_EQ(pool.live(), kCount - 100);
  EXPECT_EQ(pool.allocated(), kCount);

  // Recycling reuses the free list without carving new slabs.
  for (std::size_t i = 0; i < 100; ++i) pool.allocate();
  EXPECT_EQ(pool.live(), kCount);
  EXPECT_EQ(pool.allocated(), kCount);
  EXPECT_EQ(pool.slabs(), 2u);
}

TEST(PacketPoolTest, OnePacketCommitsOnlyAFewSlabPages) {
  // The pool must touch only about what it hands out: one idle shard pool
  // per plane would otherwise pin a whole 256 KiB slab each. mincore()
  // reports which pages of the slab the kernel has actually committed.
  PacketPool pool;
  const Packet* p = pool.allocate();
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  const std::uintptr_t begin =
      reinterpret_cast<std::uintptr_t>(p) & ~std::uintptr_t{page - 1};
  const std::size_t pages = PacketPool::kSlabPackets * sizeof(Packet) / page;
  std::vector<unsigned char> resident(pages);
  ASSERT_EQ(mincore(reinterpret_cast<void*>(begin), pages * page,
                    resident.data()),
            0);
  std::size_t committed = 0;
  for (const unsigned char r : resident) committed += (r & 1U) * page;
  EXPECT_LE(committed, 32U * 1024U);
}

// ------------------------------------------- intrusive FIFOs in the queue

/// Terminal sink recording delivery order by packet seq.
class SeqRecorder : public PacketSink {
 public:
  explicit SeqRecorder(PacketPool& pool) : pool_(pool) {}
  void receive(Packet& packet) override {
    seqs.push_back(packet.seq);
    pool_.free(&packet);
  }
  std::vector<std::uint64_t> seqs;

 private:
  PacketPool& pool_;
};

TEST(QueueIntrusiveFifoTest, PriorityAcksOvertakeDataButStayFifoWithinClass) {
  EventQueue events;
  PacketPool pool;
  SeqRecorder sink(pool);
  // priority_acks on; generous buffer so nothing drops.
  Queue queue(events, pool, /*rate_bps=*/1e9, /*buffer_bytes=*/1 << 20,
              /*ecn_threshold_bytes=*/0, /*priority_acks=*/true);
  OwnedRoute route({&queue, &sink});

  // Interleave data (even seq) and ACKs (odd seq) while the queue is busy:
  // data 0 enters service first (committed, no preemption), then every
  // queued ACK must overtake every queued data packet, each class in FIFO
  // order.
  auto inject = [&](std::uint64_t seq, bool ack) {
    Packet* p = pool.allocate();
    p->seq = seq;
    p->is_ack = ack;
    p->size_bytes = ack ? 64 : 1500;
    p->route = &route;
    p->forward();
  };
  inject(0, false);
  inject(2, false);
  inject(1, true);
  inject(4, false);
  inject(3, true);
  inject(5, true);
  events.run();

  const std::vector<std::uint64_t> want = {0, 1, 3, 5, 2, 4};
  EXPECT_EQ(sink.seqs, want);
  EXPECT_EQ(pool.live(), 0u);
}

// -------------------------------------------------- batched dispatch fuzz

/// Reference model: the dispatch order of (when, seq) entries must equal a
/// stable sort by (when, then scheduling order), regardless of heap arity
/// or timestamp batching.
TEST(EventQueueFuzzTest, BatchedDispatchMatchesStableSortReference) {
  class Recorder : public EventSource {
   public:
    Recorder(std::vector<int>& log, int id) : log_(log), id_(id) {}
    void do_next_event() override { log_.push_back(id_); }

   private:
    std::vector<int>& log_;
    int id_;
  };

  Rng rng(0xF0F0'5EED'1234ULL);
  for (int round = 0; round < 50; ++round) {
    EventQueue events;
    std::vector<int> log;
    std::vector<Recorder> sources;
    sources.reserve(400);
    // Few distinct timestamps => long same-instant batches, the case the
    // drain loop in run_batch() handles.
    std::vector<std::pair<SimTime, int>> scheduled;
    const int n = 50 + static_cast<int>(rng.next_u64() % 350);
    for (int i = 0; i < n; ++i) {
      const auto when = static_cast<SimTime>(rng.next_u64() % 8);
      sources.emplace_back(log, i);
      scheduled.emplace_back(when, i);
    }
    for (int i = 0; i < n; ++i) {
      events.schedule_at(scheduled[i].first, &sources[i]);
    }
    events.run();

    std::vector<std::pair<SimTime, int>> want = scheduled;
    std::stable_sort(want.begin(), want.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    ASSERT_EQ(log.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(log[i], want[i].second) << "round " << round << " pos " << i;
    }
  }
}

TEST(EventQueueFuzzTest, SameInstantReschedulesDispatchAfterPendingPeers) {
  // A handler scheduling at the batch timestamp gets a larger seq, so it
  // runs after everything already pending at that instant — the property
  // that makes batched dispatch byte-identical to one-at-a-time.
  class Chain : public EventSource {
   public:
    Chain(EventQueue& events, std::vector<int>& log, int id, int hops)
        : events_(events), log_(log), id_(id), hops_(hops) {}
    void do_next_event() override {
      log_.push_back(id_);
      if (hops_-- > 0) events_.schedule_in(0, this);
    }

   private:
    EventQueue& events_;
    std::vector<int>& log_;
    int id_;
    int hops_;
  };

  EventQueue events;
  std::vector<int> log;
  Chain a(events, log, 1, 2);
  Chain b(events, log, 2, 2);
  events.schedule_at(5, &a);
  events.schedule_at(5, &b);
  events.run();
  // Round-robin, not run-to-completion: each reschedule queues behind the
  // other chain's pending entry.
  const std::vector<int> want = {1, 2, 1, 2, 1, 2};
  EXPECT_EQ(log, want);
  EXPECT_EQ(events.dispatched(), 6u);
}

// --------------------------------------------------- steady-state growth

TEST(EventQueueReserveTest, NoRegrowthWhenReservationCoversLoad) {
  class SelfScheduler : public EventSource {
   public:
    explicit SelfScheduler(EventQueue& events) : events_(events) {}
    void do_next_event() override {
      if (left_-- > 0) events_.schedule_in(3, this);
    }
    int left_ = 1000;

   private:
    EventQueue& events_;
  };

  EventQueue events;
  events.reserve(64);
  ASSERT_TRUE(events.reserved());
  std::vector<SelfScheduler> sources(32, SelfScheduler(events));
  for (auto& s : sources) events.schedule_in(1, &s);
  events.run();
  // 32 concurrent entries never exceed the 64-slot reservation: the heap
  // must not have reallocated after reserve().
  EXPECT_EQ(events.regrowths(), 0u);
  EXPECT_GE(events.capacity(), 64u);
}

TEST(EventQueueReserveTest, RegrowthPastReservationIsCounted) {
  class Nop : public EventSource {
   public:
    void do_next_event() override {}
  };
  EventQueue events;
  events.reserve(4);
  Nop nop;
  for (int i = 0; i < 100; ++i) events.schedule_in(i, &nop);
  EXPECT_GT(events.regrowths(), 0u);
  events.run();
}

// Pool + queue + pipe end to end: after warm-up, recirculating the same
// packets must not carve new slabs (the zero-allocation steady state).
TEST(DataPlaneSteadyStateTest, RecirculationCarvesNoNewSlabs) {
  EventQueue events;
  PacketPool pool;
  SeqRecorder sink(pool);
  Queue queue(events, pool, 10e9, 1 << 20);
  Pipe pipe(events, units::kMicrosecond);
  OwnedRoute route({&queue, &pipe, &sink});

  auto burst = [&](int count) {
    for (int i = 0; i < count; ++i) {
      Packet* p = pool.allocate();
      p->size_bytes = 1500;
      p->route = &route;
      p->forward();
    }
    events.run();
  };

  burst(256);  // warm-up carves the working set
  const std::size_t allocated = pool.allocated();
  const std::size_t slabs = pool.slabs();
  for (int round = 0; round < 20; ++round) burst(256);
  EXPECT_EQ(pool.allocated(), allocated);
  EXPECT_EQ(pool.slabs(), slabs);
  EXPECT_EQ(pool.live(), 0u);
}

}  // namespace
}  // namespace pnet::sim
