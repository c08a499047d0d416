#include <gtest/gtest.h>

#include "cliquesim/collectives.hpp"
#include "cliquesim/network.hpp"

namespace lapclique::clique {
namespace {

TEST(Word, RoundTripsInt) {
  const Word w(std::int64_t{-12345});
  EXPECT_EQ(w.as_int(), -12345);
}

TEST(Word, RoundTripsDouble) {
  const Word w(3.14159);
  EXPECT_DOUBLE_EQ(w.as_double(), 3.14159);
}

TEST(Network, RejectsNonPositiveSize) {
  EXPECT_THROW(Network(0), std::invalid_argument);
  EXPECT_THROW(Network(-3), std::invalid_argument);
}

TEST(Network, StartsAtZeroRounds) {
  Network net(4);
  EXPECT_EQ(net.rounds(), 0);
  EXPECT_EQ(net.words_sent(), 0);
}

TEST(Network, ChargeAccumulates) {
  Network net(4);
  net.charge(3);
  net.charge(2, 10);
  EXPECT_EQ(net.rounds(), 5);
  EXPECT_EQ(net.words_sent(), 10);
}

TEST(Network, ChargeRejectsNegative) {
  Network net(4);
  EXPECT_THROW(net.charge(-1), std::invalid_argument);
}

TEST(Network, ExchangeChargesMaxPairMultiplicity) {
  Network net(4);
  // Two messages on the same ordered pair -> 2 rounds; others overlap free.
  std::vector<Msg> msgs{{0, 1, 0, Word(std::int64_t{1})},
                        {0, 1, 0, Word(std::int64_t{2})},
                        {2, 3, 0, Word(std::int64_t{3})}};
  net.exchange(msgs);
  EXPECT_EQ(net.rounds(), 2);
  EXPECT_EQ(net.inbox(1).size(), 2u);
  EXPECT_EQ(net.inbox(3).size(), 1u);
}

TEST(Network, ExchangeValidatesNodeIds) {
  Network net(2);
  EXPECT_THROW(net.exchange({{0, 5, 0, Word()}}), std::out_of_range);
}

TEST(Network, LenzenRouteChargesConstantForUnitLoad) {
  Network net(8);
  std::vector<Msg> msgs;
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      if (i != j) msgs.push_back({i, j, 0, Word(std::int64_t{i})});
    }
  }
  net.lenzen_route(msgs);
  // max load = 7 <= n, so c = 1 and the charge is the Lenzen constant.
  EXPECT_EQ(net.rounds(), net.lenzen_constant());
}

TEST(Network, LenzenRouteScalesWithLoad) {
  Network net(4);
  std::vector<Msg> msgs;
  // Node 0 sends 9 messages to node 1: load ceil(9/4) = 3.
  for (int k = 0; k < 9; ++k) msgs.push_back({0, 1, k, Word(std::int64_t{k})});
  net.lenzen_route(msgs);
  EXPECT_EQ(net.rounds(), 3 * net.lenzen_constant());
}

TEST(Network, DrainInboxEmptiesIt) {
  Network net(3);
  net.exchange({{0, 1, 7, Word(std::int64_t{42})}});
  auto msgs = net.drain_inbox(1);
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0].tag, 7);
  EXPECT_EQ(msgs[0].payload.as_int(), 42);
  EXPECT_TRUE(net.inbox(1).empty());
}

TEST(Network, PhaseLedgerSplitsRounds) {
  Network net(4);
  net.set_phase("a");
  net.charge(2);
  net.set_phase("b");
  net.charge(5);
  EXPECT_EQ(net.ledger().rounds_by_phase.at("a"), 2);
  EXPECT_EQ(net.ledger().rounds_by_phase.at("b"), 5);
}

TEST(Network, ResetAccountingClearsEverything) {
  Network net(4);
  net.charge(9, 10);
  net.reset_accounting();
  EXPECT_EQ(net.rounds(), 0);
  EXPECT_EQ(net.words_sent(), 0);
  EXPECT_TRUE(net.op_log().empty());
}

TEST(Network, OpLogRecordsMaxNodeLoad) {
  Network net(4);
  net.lenzen_route({{0, 1, 0, Word()}, {0, 2, 0, Word()}, {0, 3, 0, Word()}});
  ASSERT_FALSE(net.op_log().empty());
  EXPECT_EQ(net.op_log().back().max_node_load, 3);
}

TEST(Collectives, BroadcastOneChargesOneRound) {
  Network net(5);
  const auto out = broadcast_one(net, {1, 2, 3, 4, 5});
  EXPECT_EQ(net.rounds(), 1);
  EXPECT_EQ(out[3], 4);
}

TEST(Collectives, BroadcastOneValidatesSize) {
  Network net(5);
  EXPECT_THROW(broadcast_one(net, {1, 2}), std::invalid_argument);
}

TEST(Collectives, BroadcastManyChargesMaxLength) {
  Network net(3);
  std::vector<std::vector<Word>> vals{{Word(std::int64_t{1})},
                                      {Word(std::int64_t{1}), Word(std::int64_t{2})},
                                      {}};
  broadcast_many(net, vals);
  EXPECT_EQ(net.rounds(), 2);
}

TEST(Collectives, AllreduceSumIsExact) {
  Network net(4);
  EXPECT_DOUBLE_EQ(allreduce_sum(net, {0.5, 1.5, 2.0, -1.0}), 3.0);
  EXPECT_EQ(net.rounds(), 1);
}

TEST(Collectives, AllreduceMinMax) {
  Network net(3);
  EXPECT_DOUBLE_EQ(allreduce_max(net, {1.0, 9.0, 4.0}), 9.0);
  EXPECT_DOUBLE_EQ(allreduce_min(net, {1.0, 9.0, 4.0}), 1.0);
  EXPECT_EQ(net.rounds(), 2);
}

TEST(Collectives, AllreduceIntVariants) {
  Network net(3);
  EXPECT_EQ(allreduce_sum_int(net, {2, 3, 4}), 9);
  EXPECT_EQ(allreduce_max_int(net, {2, 3, 4}), 4);
}

TEST(Collectives, GatherToAllConcatenatesAndCharges) {
  Network net(4);
  std::vector<std::vector<Word>> words(4);
  for (int i = 0; i < 8; ++i) {
    words[static_cast<std::size_t>(i % 4)].push_back(Word(std::int64_t{i}));
  }
  const auto all = gather_to_all(net, words);
  EXPECT_EQ(all.size(), 8u);
  // ceil(8/4) + 1 = 3 rounds.
  EXPECT_EQ(net.rounds(), 3);
}

TEST(Network, TransmitSubroundDeliversInOneRound) {
  Network net(4);
  std::vector<Msg> msgs{{0, 1, 0, Word(std::int64_t{1})},
                        {2, 3, 0, Word(std::int64_t{2})},
                        {1, 0, 0, Word(std::int64_t{3})}};
  net.transmit_subround(msgs);
  EXPECT_EQ(net.rounds(), 1);
  EXPECT_EQ(net.words_sent(), 3);
  EXPECT_EQ(net.inbox(1).size(), 1u);
  EXPECT_EQ(net.inbox(3).size(), 1u);
  EXPECT_FALSE(net.has_violation());
}

TEST(Network, TransmitSubroundRejectsOversubscribedPairStrongly) {
  Network net(4);
  net.set_phase("testing");
  net.charge(2, 5);
  const std::size_t ops_before = net.op_log().size();
  // Two words on the ordered pair (0, 1) exceed the one-word-per-pair limit.
  std::vector<Msg> msgs{{0, 1, 0, Word(std::int64_t{1})},
                        {0, 1, 1, Word(std::int64_t{2})},
                        {2, 3, 0, Word(std::int64_t{3})}};
  EXPECT_THROW(net.transmit_subround(msgs), BandwidthViolation);
  // Strong guarantee: the failed operation left no trace in the accounting,
  // the op log, or any inbox — not even for the valid (2, 3) message.
  EXPECT_EQ(net.rounds(), 2);
  EXPECT_EQ(net.words_sent(), 5);
  EXPECT_EQ(net.op_log().size(), ops_before);
  EXPECT_TRUE(net.inbox(1).empty());
  EXPECT_TRUE(net.inbox(3).empty());
  // ... but the rejected batch stays queryable.
  ASSERT_TRUE(net.has_violation());
  const BandwidthViolation& v = net.last_violation();
  EXPECT_EQ(v.phase(), "testing");
  EXPECT_EQ(v.primitive(), "transmit_subround");
  EXPECT_EQ(v.offered(), 2);
  EXPECT_EQ(v.limit(), 1);
}

TEST(Network, LastViolationWithoutAnyThrowsLogicError) {
  Network net(4);
  EXPECT_FALSE(net.has_violation());
  EXPECT_THROW((void)net.last_violation(), std::logic_error);
}

// Congestion audit invariant: an operation never moves more words through a
// single node than the model's bandwidth times the rounds charged allows.
TEST(Network, CongestionAuditHolds) {
  Network net(6);
  std::vector<Msg> msgs;
  for (int i = 1; i < 6; ++i) {
    for (int k = 0; k < 4; ++k) msgs.push_back({i, 0, k, Word(std::int64_t{k})});
  }
  net.lenzen_route(msgs);
  for (const OpRecord& op : net.op_log()) {
    EXPECT_LE(op.max_node_load,
              op.rounds * static_cast<std::int64_t>(net.size()))
        << "phase " << op.phase;
  }
}

// --- Broadcast Congested Clique charging ------------------------------------

TEST(Broadcast, ModeStringsRoundTrip) {
  for (const RoutingMode mode : {RoutingMode::kCharged, RoutingMode::kExecuted,
                                 RoutingMode::kBroadcast}) {
    const auto parsed = routing_mode_from_string(to_string(mode));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, mode);
  }
  EXPECT_FALSE(routing_mode_from_string("smoke-signals").has_value());
}

TEST(Broadcast, ExchangeChargesMaxWordsPerSource) {
  Network net(4);
  net.set_routing_mode(RoutingMode::kBroadcast);
  // Node 0 sends 3 words to distinct destinations: 1 unicast sub-round
  // (all pairs distinct) but 3 broadcast rounds (one word per source/round).
  const std::vector<Msg> msgs{{0, 1, 0, Word(std::int64_t{1})},
                              {0, 2, 0, Word(std::int64_t{2})},
                              {0, 3, 0, Word(std::int64_t{3})},
                              {1, 2, 0, Word(std::int64_t{4})}};
  net.exchange(msgs);
  EXPECT_EQ(net.rounds(), 3);
  EXPECT_EQ(net.words_sent(), 4);  // one ledgered word per broadcast
  EXPECT_EQ(net.inbox(2).size(), 2u);  // delivery identical to unicast
}

TEST(Broadcast, TransmitSubroundLimitIsPerSource) {
  Network net(4);
  net.set_routing_mode(RoutingMode::kBroadcast);
  // Distinct ordered pairs (fine in unicast) but node 0 broadcasts twice.
  const std::vector<Msg> over{{0, 1, 0, Word(std::int64_t{1})}, {0, 2, 0, Word(std::int64_t{2})}};
  EXPECT_THROW(net.transmit_subround(over), BandwidthViolation);
  EXPECT_EQ(net.rounds(), 0);  // strong guarantee: nothing charged
  const std::vector<Msg> ok{{0, 1, 0, Word(std::int64_t{1})}, {1, 2, 0, Word(std::int64_t{2})}};
  net.transmit_subround(ok);
  EXPECT_EQ(net.rounds(), 1);
}

TEST(Broadcast, LenzenRouteChargesExactScheduleNotSixteenC) {
  const std::vector<Msg> msgs{{0, 1, 0, Word(std::int64_t{7})}, {1, 0, 0, Word(std::int64_t{8})}};
  Network charged(4);
  charged.lenzen_route(msgs);
  EXPECT_EQ(charged.rounds(), charged.lenzen_constant());
  Network bcast(4);
  bcast.set_routing_mode(RoutingMode::kBroadcast);
  bcast.lenzen_route(msgs);
  EXPECT_EQ(bcast.rounds(), 1);  // every source broadcasts once
  EXPECT_EQ(bcast.inbox(0).size(), charged.inbox(0).size());
}

TEST(Broadcast, CollectivesChargeOneWordPerBroadcast) {
  Network net(8);
  net.set_routing_mode(RoutingMode::kBroadcast);
  (void)broadcast_one(net, std::vector<double>(8, 1.0));
  EXPECT_EQ(net.rounds(), 1);
  EXPECT_EQ(net.words_sent(), 8);  // n broadcasts, not n*(n-1) deliveries
  net.reset_accounting();
  (void)allreduce_sum(net, std::vector<double>(8, 0.5));
  EXPECT_EQ(net.rounds(), 1);
  EXPECT_EQ(net.words_sent(), 8);
}

TEST(Broadcast, GatherToAllDropsRelayRound) {
  // 16 words over 8 nodes: unicast charges ceil(16/8)+1 = 3 rounds and
  // 16*8 delivered words; broadcast charges ceil(16/8) = 2 rounds and 16.
  std::vector<std::vector<Word>> words(8);
  for (int v = 0; v < 8; ++v) words[static_cast<std::size_t>(v)] = {Word(std::int64_t{v}), Word(std::int64_t{v})};
  Network uni(8);
  (void)gather_to_all(uni, words);
  EXPECT_EQ(uni.rounds(), 3);
  EXPECT_EQ(uni.words_sent(), 16 * 8);
  Network bc(8);
  bc.set_routing_mode(RoutingMode::kBroadcast);
  const auto out = gather_to_all(bc, words);
  EXPECT_EQ(bc.rounds(), 2);
  EXPECT_EQ(bc.words_sent(), 16);
  EXPECT_EQ(out.size(), 16u);
}

TEST(Broadcast, SemanticChargeHelpers) {
  Network uni(6);
  uni.charge_all_to_all(2);
  EXPECT_EQ(uni.rounds(), 2);
  EXPECT_EQ(uni.words_sent(), 2 * 6 * 5);
  uni.reset_accounting();
  uni.charge_announcement();
  EXPECT_EQ(uni.rounds(), 1);
  EXPECT_EQ(uni.words_sent(), 5);

  Network bc(6);
  bc.set_routing_mode(RoutingMode::kBroadcast);
  bc.charge_all_to_all(2);
  EXPECT_EQ(bc.rounds(), 2);
  EXPECT_EQ(bc.words_sent(), 2 * 6);
  bc.reset_accounting();
  bc.charge_announcement();
  EXPECT_EQ(bc.rounds(), 1);
  EXPECT_EQ(bc.words_sent(), 1);
  bc.reset_accounting();
  bc.charge_gossip(13, 13 * 6);
  EXPECT_EQ(bc.rounds(), (13 + 5) / 6);
  EXPECT_EQ(bc.words_sent(), 13);
}

}  // namespace
}  // namespace lapclique::clique
