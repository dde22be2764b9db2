// Unit tests for ckr_online: the Section VIII online CTR adaptation.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "online/ctr_tracker.h"

namespace ckr {
namespace {

TEST(CtrTrackerTest, EmptyTrackerIsNeutral) {
  CtrTracker tracker;
  EXPECT_EQ(tracker.NumTracked(), 0u);
  EXPECT_DOUBLE_EQ(tracker.Adjustment("anything"), 0.0);
  EXPECT_FALSE(tracker.IsSpiking("anything"));
  EXPECT_GT(tracker.SystemCtr(), 0.0);
}

TEST(CtrTrackerTest, SmoothedCtrShrinksTowardSystem) {
  CtrTracker tracker;
  // Establish a system CTR of ~2%.
  tracker.Record("bulk", 100000, 2000);
  // A concept with 5 views and 5 clicks should NOT look like CTR 1.0.
  tracker.Record("tiny", 5, 5);
  double smoothed = tracker.SmoothedCtr("tiny");
  EXPECT_GT(smoothed, tracker.SystemCtr());
  EXPECT_LT(smoothed, 0.1);  // Far below the raw 1.0.
}

TEST(CtrTrackerTest, HotConceptGetsPositiveAdjustment) {
  CtrTracker tracker;
  tracker.Record("bulk", 100000, 2000);     // System ~2%.
  tracker.Record("hot", 5000, 500);         // 10%.
  tracker.Record("cold", 5000, 10);         // 0.2%.
  EXPECT_GT(tracker.Adjustment("hot"), 0.3);
  EXPECT_LT(tracker.Adjustment("cold"), -0.3);
  EXPECT_DOUBLE_EQ(tracker.Adjustment("unseen"), 0.0);
}

TEST(CtrTrackerTest, AdjustmentIsClamped) {
  CtrTrackerConfig cfg;
  cfg.max_adjustment = 0.5;
  cfg.adjustment_weight = 2.0;
  CtrTracker tracker(cfg);
  tracker.Record("bulk", 1000000, 1000);
  tracker.Record("viral", 50000, 40000);  // Extreme ratio.
  EXPECT_LE(tracker.Adjustment("viral"), 1.0 + 1e-12);   // 2.0 * 0.5.
  tracker.Record("dead", 50000, 0);
  EXPECT_GE(tracker.Adjustment("dead"), -1.0 - 1e-12);
}

TEST(CtrTrackerTest, TickDecaysHistory) {
  CtrTrackerConfig cfg;
  cfg.decay = 0.5;
  cfg.prior_views = 10;
  CtrTracker tracker(cfg);
  tracker.Record("bulk", 100000, 2000);
  tracker.Record("fad", 10000, 2000);  // 20% CTR this period.
  tracker.Tick();
  double right_after = tracker.SmoothedCtr("fad");
  // Several quiet periods: history decays, estimate returns to the prior.
  for (int i = 0; i < 12; ++i) tracker.Tick();
  double much_later = tracker.SmoothedCtr("fad");
  EXPECT_LT(much_later, right_after);
  EXPECT_NEAR(much_later, tracker.SystemCtr(), 0.05);
}

TEST(CtrTrackerTest, SpikeDetection) {
  CtrTrackerConfig cfg;
  cfg.spike_ratio = 3.0;
  cfg.spike_min_views = 50;
  CtrTracker tracker(cfg);
  // History: steady 2% for both concepts.
  tracker.Record("steady", 10000, 200);
  tracker.Record("event", 10000, 200);
  tracker.Record("bulk", 100000, 2000);
  tracker.Tick();
  // Fresh period: "event" jumps to 20%.
  tracker.Record("steady", 1000, 20);
  tracker.Record("event", 1000, 200);
  EXPECT_FALSE(tracker.IsSpiking("steady"));
  EXPECT_TRUE(tracker.IsSpiking("event"));
  auto spiking = tracker.SpikingConcepts();
  ASSERT_EQ(spiking.size(), 1u);
  EXPECT_EQ(spiking[0], "event");
}

TEST(CtrTrackerTest, SpikeNeedsFreshVolume) {
  CtrTrackerConfig cfg;
  cfg.spike_min_views = 100;
  CtrTracker tracker(cfg);
  tracker.Record("bulk", 100000, 2000);
  tracker.Tick();
  tracker.Record("thin", 20, 20);  // 100% CTR but only 20 views.
  EXPECT_FALSE(tracker.IsSpiking("thin"));
}

// --- Cold-start regressions: the intended behavior is neutrality. A
// concept with no usable evidence gets adjustment 0 (never the full
// punishment band) and never spikes before Tick() has folded at least
// one period into its history.

TEST(CtrTrackerTest, ZeroPriorZeroViewsStaysFiniteAndNeutral) {
  CtrTrackerConfig cfg;
  cfg.prior_views = 0.0;  // Degenerate prior: the 0/0 case.
  CtrTracker tracker(cfg);
  tracker.Record("cold", 0, 0);  // Tracked, but zero observations.
  double smoothed = tracker.SmoothedCtr("cold");
  EXPECT_FALSE(std::isnan(smoothed));
  EXPECT_DOUBLE_EQ(smoothed, tracker.SystemCtr());
  EXPECT_DOUBLE_EQ(tracker.Adjustment("cold"), 0.0);
}

TEST(CtrTrackerTest, ZeroClickColdConceptIsNeutralNotPunished) {
  CtrTrackerConfig cfg;
  cfg.prior_views = 0.0;  // Smoothed CTR is exactly 0 with no clicks.
  CtrTracker tracker(cfg);
  tracker.Record("bulk", 100000, 2000);
  tracker.Record("cold", 3, 0);  // Three views, no clicks: not evidence.
  // ln(0) used to clamp this to the full -max_adjustment.
  EXPECT_DOUBLE_EQ(tracker.Adjustment("cold"), 0.0);
}

TEST(CtrTrackerTest, NoSpikeBeforeFirstTick) {
  CtrTracker tracker;  // Default spike_ratio 3, spike_min_views 50.
  tracker.Record("bulk", 100000, 1000);  // System CTR ~1%.
  // Hot first-period concept (50% CTR, 100 views) with no history at
  // all: its fresh CTR dwarfs the system rate, and before the
  // history gate this spiked on the very first period.
  tracker.Record("brand_new", 100, 50);
  EXPECT_FALSE(tracker.IsSpiking("brand_new"));
  EXPECT_TRUE(tracker.SpikingConcepts().empty());
}

TEST(CtrTrackerTest, SpikesStillFireOnceHistoryExists) {
  CtrTracker tracker;
  tracker.Record("bulk", 100000, 2000);
  tracker.Record("concept", 1000, 20);  // 2%, in line with the system.
  tracker.Tick();
  tracker.Record("concept", 1000, 200);  // Jumps to 20%.
  EXPECT_TRUE(tracker.IsSpiking("concept"));
}

// The Section VIII bench in miniature (decay 0.5, spike ratio 2.5): three
// burst days of ~20% CTR. When the burst is the subject's first traffic,
// no day spikes: on the first the no-history gate holds, and from the
// next the history is the burst itself. Two organic stories' worth of
// traffic a day before the event gives the burst a baseline, and the
// first burst day spikes.
TEST(CtrTrackerTest, BurstSpikesOnlyOverOrganicHistory) {
  CtrTrackerConfig cfg;
  cfg.decay = 0.5;
  cfg.spike_ratio = 2.5;
  for (const bool organic : {false, true}) {
    CtrTracker tracker(cfg);
    std::vector<bool> spiking;
    for (int day = 0; day < 8; ++day) {
      tracker.Record("bulk", 20000, 400);  // Everyone else: 2%.
      if (organic) tracker.Record("subject", 300, 6);
      if (day >= 4 && day < 7) tracker.Record("subject", 4500, 900);
      spiking.push_back(tracker.IsSpiking("subject"));
      tracker.Tick();
    }
    const std::vector<bool> want = {false, false, false, false,
                                    organic, false, false, false};
    EXPECT_EQ(spiking, want) << (organic ? "organic" : "burst only");
  }
}

TEST(CtrTrackerTest, RecordAccumulatesWithinPeriod) {
  CtrTracker tracker;
  tracker.Record("x", 100, 10);
  tracker.Record("x", 100, 10);
  tracker.Record("bulk", 100000, 1000);
  double two_batches = tracker.SmoothedCtr("x");
  CtrTracker tracker2;
  tracker2.Record("x", 200, 20);
  tracker2.Record("bulk", 100000, 1000);
  EXPECT_DOUBLE_EQ(two_batches, tracker2.SmoothedCtr("x"));
}

}  // namespace
}  // namespace ckr
