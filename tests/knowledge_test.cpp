// Knowledge Base tests: the Fig. 5b key encoding, typed reads, query styles
// (exact / by-label / by-entity / multilevel prefix / by-creator), the
// publish/subscribe change notifications, and the collective-knowledge
// one-way update rules of §IV-B3.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "kalis/knowledge.hpp"

namespace kalis::ids {
namespace {

TEST(KnowggetKey, EncodeMatchesPaperFigure5b) {
  EXPECT_EQ(encodeKey("K1", "Multihop", ""), "K1$Multihop");
  EXPECT_EQ(encodeKey("K1", "SignalStrength", "SensorA"),
            "K1$SignalStrength@SensorA");
  EXPECT_EQ(encodeKey("K1", "TrafficFrequency.TCPSYN", ""),
            "K1$TrafficFrequency.TCPSYN");
}

TEST(KnowggetKey, DecodeRoundTrip) {
  auto parts = decodeKey("K2$SignalStrength@SensorA");
  ASSERT_TRUE(parts.has_value());
  EXPECT_EQ(parts->creator, "K2");
  EXPECT_EQ(parts->label, "SignalStrength");
  EXPECT_EQ(parts->entity, "SensorA");

  parts = decodeKey("K1$Multihop");
  ASSERT_TRUE(parts.has_value());
  EXPECT_EQ(parts->entity, "");
  EXPECT_EQ(decodeKey("no-dollar-here"), std::nullopt);
}

TEST(KnowledgeBase, PutAndTypedReads) {
  KnowledgeBase kb("K1");
  kb.put("Multihop", true);
  kb.put("MonitoredNodes", 8);
  kb.put("TrafficFrequency.TCPSYN", 0.037);
  kb.put("SignalStrength", -67, "SensorA");

  EXPECT_EQ(kb.local<bool>("Multihop"), true);
  EXPECT_EQ(kb.local<long long>("MonitoredNodes"), 8);
  EXPECT_DOUBLE_EQ(*kb.local<double>("TrafficFrequency.TCPSYN"), 0.037);
  EXPECT_EQ(kb.local<long long>("SignalStrength", "SensorA"), -67);
  EXPECT_EQ(kb.local("Missing"), std::nullopt);
  // Raw access by full key, exactly as the implementation section describes.
  EXPECT_EQ(kb.raw("K1$Multihop"), "true");
  EXPECT_EQ(kb.raw("K1$SignalStrength@SensorA"), "-67");
}

TEST(KnowledgeBase, TypeMismatchYieldsNullopt) {
  KnowledgeBase kb("K1");
  kb.put("Multihop", "maybe");
  EXPECT_EQ(kb.local<bool>("Multihop"), std::nullopt);
  EXPECT_EQ(kb.local<long long>("Multihop"), std::nullopt);
}

TEST(KnowledgeBase, ByLabelSpansCreatorsAndEntities) {
  KnowledgeBase kb("K1");
  kb.put("SignalStrength", -67, "SensorA");
  Knowgget remote;
  remote.creator = "K2";
  remote.label = "SignalStrength";
  remote.entity = "SensorA";
  remote.value = "-84";
  ASSERT_TRUE(kb.putRemote(remote));

  const auto hits = kb.byLabel("SignalStrength");
  EXPECT_EQ(hits.size(), 2u);
  const auto byEntity = kb.byEntity("SensorA");
  EXPECT_EQ(byEntity.size(), 2u);
  EXPECT_EQ(kb.byCreator("K2").size(), 1u);
}

TEST(KnowledgeBase, MultilevelPrefixQuery) {
  KnowledgeBase kb("K1");
  kb.put("TrafficFrequency.TCPSYN", 0.037);
  kb.put("TrafficFrequency.TCPACK", 0.090);
  kb.put("TrafficFrequencyOther", 1.0);  // must NOT match
  const auto subtree = kb.byLabelPrefix("TrafficFrequency");
  EXPECT_EQ(subtree.size(), 2u);
}

TEST(KnowledgeBase, SubscriptionFiresOnChangeOnly) {
  KnowledgeBase kb("K1");
  int calls = 0;
  kb.subscribe("Multihop", [&](const Knowgget&) { ++calls; });
  kb.put("Multihop", true);
  kb.put("Multihop", true);  // unchanged: no notification
  kb.put("Multihop", false);
  EXPECT_EQ(calls, 2);
}

TEST(KnowledgeBase, WildcardSubscription) {
  KnowledgeBase kb("K1");
  int calls = 0;
  kb.subscribe("TrafficFrequency.*", [&](const Knowgget&) { ++calls; });
  kb.put("TrafficFrequency.TCPSYN", 1.0);
  kb.put("TrafficFrequency.UDP", 2.0);
  kb.put("Mobility", 3.0);
  EXPECT_EQ(calls, 2);
}

TEST(KnowledgeBase, Unsubscribe) {
  KnowledgeBase kb("K1");
  int calls = 0;
  const int id = kb.subscribe("X", [&](const Knowgget&) { ++calls; });
  kb.put("X", "1");
  kb.unsubscribe(id);
  kb.put("X", "2");
  EXPECT_EQ(calls, 1);
}

/// Minimal CollectiveSink recording the labels it saw.
struct RecordingSink final : CollectiveSink {
  void onCollective(const Knowgget& k) override { labels.push_back(k.label); }
  std::vector<std::string> labels;
};

TEST(KnowledgeBase, CollectiveSinkReceivesOnlyCollective) {
  KnowledgeBase kb("K1");
  RecordingSink sink;
  kb.addCollectiveSink(&sink);
  kb.put("Mobility", true, "", /*collective=*/true);
  kb.put("Multihop", true, "", /*collective=*/false);
  ASSERT_EQ(sink.labels.size(), 1u);
  EXPECT_EQ(sink.labels[0], "Mobility");
}

TEST(KnowledgeBase, MultipleCollectiveSinksFireInOrderAndDeduplicate) {
  KnowledgeBase kb("K1");
  RecordingSink a;
  RecordingSink b;
  kb.addCollectiveSink(&a);
  kb.addCollectiveSink(&b);
  kb.addCollectiveSink(&a);  // duplicate registration: no double delivery
  kb.put("Mobility", true, "", /*collective=*/true);
  EXPECT_EQ(a.labels, std::vector<std::string>{"Mobility"});
  EXPECT_EQ(b.labels, std::vector<std::string>{"Mobility"});
  kb.removeCollectiveSink(&a);
  kb.put("Mobility", false, "", /*collective=*/true);
  EXPECT_EQ(a.labels.size(), 1u);
  EXPECT_EQ(b.labels.size(), 2u);
}

TEST(KnowledgeBase, TemplatedPutNormalizesArgumentTypes) {
  KnowledgeBase kb("K1");
  kb.put("Count", 8);                  // int -> long long
  kb.put("Share", 0.25f);              // float -> double
  kb.put("Name", "thermostat");        // const char* -> std::string
  kb.put("Flag", true);                // bool stays bool
  EXPECT_EQ(kb.local<long long>("Count"), 8);
  EXPECT_DOUBLE_EQ(*kb.local<double>("Share"), 0.25);
  EXPECT_EQ(kb.local("Name"), "thermostat");  // default T = std::string
  EXPECT_EQ(kb.local<bool>("Flag"), true);
  // Cross-kind decode of an incompatible encoding yields nullopt.
  EXPECT_EQ(kb.local<long long>("Name"), std::nullopt);
}

TEST(KnowledgeBase, RemoteCannotImpersonateLocal) {
  KnowledgeBase kb("K1");
  Knowgget fake;
  fake.creator = "K1";  // claims to be us
  fake.label = "Multihop";
  fake.value = "true";
  EXPECT_FALSE(kb.putRemote(fake));
  EXPECT_EQ(kb.local("Multihop"), std::nullopt);
}

TEST(KnowledgeBase, RemoteUpdateOnlyOwnKnowggets) {
  // "T1 can only update those knowggets in T2 that were originally
  // generated by itself" (§IV-B3).
  KnowledgeBase kb("K1");
  Knowgget k2Knowledge;
  k2Knowledge.creator = "K2";
  k2Knowledge.label = "Mobility";
  k2Knowledge.value = "false";
  ASSERT_TRUE(kb.putRemote(k2Knowledge));

  k2Knowledge.value = "true";  // K2 updates its own entry: allowed
  EXPECT_TRUE(kb.putRemote(k2Knowledge));
  EXPECT_EQ(kb.raw("K2$Mobility"), "true");
}

TEST(KnowledgeBase, WritesDisabledFreezesEverything) {
  KnowledgeBase kb("K1");
  kb.setWritesEnabled(false);
  kb.put("Multihop", true);
  Knowgget remote;
  remote.creator = "K2";
  remote.label = "X";
  remote.value = "1";
  EXPECT_FALSE(kb.putRemote(remote));
  EXPECT_EQ(kb.size(), 0u);
}

TEST(KnowledgeBase, RemoveLocal) {
  KnowledgeBase kb("K1");
  kb.put("Multihop", true);
  EXPECT_TRUE(kb.remove("Multihop"));
  EXPECT_FALSE(kb.remove("Multihop"));
  EXPECT_EQ(kb.local("Multihop"), std::nullopt);
}

TEST(KnowledgeBase, ClockStampsUpdates) {
  KnowledgeBase kb("K1");
  SimTime now = 0;
  kb.setClock([&] { return now; });
  now = seconds(5);
  kb.put("Multihop", true);
  EXPECT_EQ(kb.all()[0].updated, seconds(5));
}

TEST(KnowledgeBase, MemoryAccountingGrows) {
  KnowledgeBase kb("K1");
  const std::size_t before = kb.memoryBytes();
  for (int i = 0; i < 50; ++i) {
    kb.put("SignalStrength", -60, "node" + std::to_string(i));
  }
  EXPECT_GT(kb.memoryBytes(), before + 50 * 16);
}

TEST(KnowledgeBase, SubscriberCanSubscribeDuringNotify) {
  // The Module Manager's activation callbacks may install new subscriptions
  // while a notification is being dispatched; this must not invalidate the
  // iteration.
  KnowledgeBase kb("K1");
  int nested = 0;
  kb.subscribe("A", [&](const Knowgget&) {
    kb.subscribe("B", [&](const Knowgget&) { ++nested; });
  });
  kb.put("A", "1");
  kb.put("B", "1");
  EXPECT_EQ(nested, 1);
}

TEST(KnowggetKey, CompareKeyMatchesEncodedStringOrder) {
  // The KB looks keys up by their parts; that order must be the order of
  // the encoded strings the store is sorted by.
  const std::string parts[] = {"", "K", "K1", "K1$", "K2", "A", "A.b", "A@",
                               "Multihop", "Multihop.WiFi", "0x0003", "@", "$"};
  std::vector<std::string> keys;
  for (const auto& creator : {"K1", "K2", "K", ""}) {
    for (const auto& label : parts) {
      for (const auto& entity : parts) keys.push_back(encodeKey(creator, label, entity));
    }
  }
  for (const auto& creator : {"K1", "K2", "K"}) {
    for (const auto& label : parts) {
      for (const auto& entity : parts) {
        const KeyRef ref{creator, label, entity};
        const std::string encoded = encodeKey(creator, label, entity);
        for (const std::string& key : keys) {
          const int expected = key.compare(encoded);
          const int got = compareKey(key, ref);
          ASSERT_EQ(expected < 0, got < 0) << key << " vs " << encoded;
          ASSERT_EQ(expected == 0, got == 0) << key << " vs " << encoded;
        }
      }
    }
  }
}

TEST(KnowledgeBase, SubscriberAddedInCallbackDoesNotFireForThatChange) {
  KnowledgeBase kb("K1");
  int late = 0;
  bool added = false;
  kb.subscribe("A", [&](const Knowgget&) {
    if (added) return;
    added = true;
    kb.subscribe("A", [&](const Knowgget&) { ++late; });
  });
  kb.put("A", 1);
  EXPECT_EQ(late, 0);
  kb.put("A", 2);
  EXPECT_EQ(late, 1);
}

TEST(KnowledgeBase, SubscriberRemovedInCallbackStillFiresForThatChange) {
  KnowledgeBase kb("K1");
  int removedCalls = 0;
  int removedId = 0;
  kb.subscribe("A", [&](const Knowgget&) { kb.unsubscribe(removedId); });
  removedId = kb.subscribe("A", [&](const Knowgget& k) {
    ++removedCalls;
    EXPECT_EQ(k.value, "1");
  });
  kb.put("A", 1);
  EXPECT_EQ(removedCalls, 1);
  kb.put("A", 2);
  EXPECT_EQ(removedCalls, 1);
}

TEST(KnowledgeBase, UnchangedPutFiresNothing) {
  KnowledgeBase kb("K1");
  RecordingSink sink;
  kb.addCollectiveSink(&sink);
  int calls = 0;
  kb.subscribe("Mobility", [&](const Knowgget&) { ++calls; });
  kb.put("Mobility", true, "", /*collective=*/true);
  kb.put("Mobility", true, "", /*collective=*/true);
  kb.put("Mobility", "true", "", /*collective=*/true);  // same encoded value
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(sink.labels.size(), 1u);
  EXPECT_EQ(kb.overlaySize(), 1u);
}

TEST(KnowledgeBase, InPlaceUpdateRefreshesTimestampAndReachesSinksInOrder) {
  KnowledgeBase kb("K1");
  SimTime now = seconds(1);
  kb.setClock([&] { return now; });
  struct OrderedSink final : CollectiveSink {
    OrderedSink(std::string name, std::vector<std::string>& log)
        : name(std::move(name)), log(log) {}
    void onCollective(const Knowgget& k) override {
      log.push_back(name + ":" + k.value + "@" + std::to_string(k.updated));
    }
    std::string name;
    std::vector<std::string>& log;
  };
  std::vector<std::string> log;
  OrderedSink a("a", log);
  OrderedSink b("b", log);
  kb.addCollectiveSink(&a);
  kb.addCollectiveSink(&b);
  SimTime seenBySubscriber = 0;
  kb.subscribe("SignalStrength", [&](const Knowgget& k) { seenBySubscriber = k.updated; });

  kb.put("SignalStrength", -60, "0x0003", /*collective=*/true);
  now = seconds(5);
  kb.put("SignalStrength", -70, "0x0003", /*collective=*/true);

  EXPECT_EQ(seenBySubscriber, seconds(5));
  const std::vector<Knowgget> all = kb.all();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].value, "-70");
  EXPECT_EQ(all[0].updated, seconds(5));
  const std::vector<std::string> expected = {"a:-60@1000000", "b:-60@1000000",
                                             "a:-70@5000000", "b:-70@5000000"};
  EXPECT_EQ(log, expected);
}

}  // namespace
}  // namespace kalis::ids
