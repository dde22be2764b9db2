#include "querylog/query_generator.h"

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"

namespace ckr {

QueryGenerator::QueryGenerator(const World& world,
                               const QueryGeneratorConfig& config)
    : world_(world), config_(config) {}

QueryLog QueryGenerator::Generate() {
  Rng rng(config_.seed);
  QueryLog log;

  // Precompute the entity demand distribution once.
  std::vector<double> demand;
  demand.reserve(world_.NumEntities());
  for (const Entity& e : world_.entities()) {
    // Quadratic emphasis: popular entities dominate query traffic, giving
    // the log the heavy-tailed shape of real search demand.
    demand.push_back(0.01 + e.popularity * e.popularity);
  }
  const CategoricalSampler entity_sampler(demand);

  const Vocabulary& vocab = world_.vocabulary();
  for (uint64_t i = 0; i < config_.num_submissions; ++i) {
    if (rng.NextBernoulli(config_.entity_query_prob)) {
      const Entity& e = world_.entity(
          static_cast<EntityId>(entity_sampler.Sample(rng)));
      double kind = rng.NextDouble();
      if (kind < config_.exact_prob) {
        log.AddQuery(e.key);
      } else if (kind < config_.exact_prob + config_.context_prob) {
        // Surface plus 1-2 context words drawn from the entity's topic;
        // these queries feed freq_phrase_contained and keep the concept's
        // terms co-occurring for unit extraction.
        std::string q = e.key;
        int extra = 1 + static_cast<int>(rng.NextBounded(2));
        for (int x = 0; x < extra; ++x) {
          size_t topic = static_cast<size_t>(e.primary_topic);
          WordId wid = vocab.SampleForTopic(topic, 0.7, rng);
          if (rng.NextBernoulli(0.5)) {
            q = vocab.Word(wid) + " " + q;
          } else {
            q += " " + vocab.Word(wid);
          }
        }
        log.AddQuery(q);
      } else {
        // Partial query: one term of the surface form.
        std::vector<std::string> terms = SplitString(e.key, " ");
        log.AddQuery(terms[rng.NextBounded(terms.size())]);
      }
    } else {
      // Generic background query.
      int n = 1 + static_cast<int>(rng.NextBounded(4));
      std::vector<std::string> words;
      for (int w = 0; w < n; ++w) {
        words.push_back(vocab.Word(vocab.SampleBackground(rng)));
      }
      log.AddQuery(JoinStrings(words, " "));
    }
  }
  log.Finalize();
  return log;
}

}  // namespace ckr
