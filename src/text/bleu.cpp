#include "text/bleu.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>

#include "util/error.h"

namespace desmine::text {

namespace {

/// N-grams of order n in a sentence of `length` tokens.
std::size_t grams_of_order(std::size_t length, std::size_t n) {
  return length >= n ? length - n + 1 : 0;
}

// Canonical n-gram order: by a 64-bit head, then (only where the head
// cannot tell two n-grams apart) by ids. The head packs the first
// min(n, kHeadIds) ids at 16 bits each, saturating at kSaturated. For a
// profile whose ids all stay below kSaturated ("small": any realistic
// sensor vocabulary) the head of an n-gram with n <= kHeadIds holds every
// id, so such an order is just its sorted heads, and two small profiles
// merge on one integer compare per step.
constexpr std::size_t kHeadIds = 4;
constexpr std::uint32_t kSaturated = 0xFFFF;

/// Whether the heads of order n hold whole n-grams.
bool heads_whole(const NgramProfile& p, std::size_t n) {
  return p.small && n <= kHeadIds;
}

/// The n-grams of one order of a profile.
struct OrderView {
  const std::uint32_t* ids;
  const std::uint64_t* heads;
  const std::uint32_t* pos;  ///< start positions; null when heads are whole
  std::size_t n;

  /// The ids of n-gram i: at its position, or unpacked from its head.
  const std::uint32_t* gram(std::size_t i, std::uint32_t* buf) const {
    if (pos != nullptr) return ids + pos[i];
    for (std::size_t k = 0; k < n; ++k) {
      buf[k] = static_cast<std::uint32_t>(heads[i] >> (16 * (n - 1 - k))) &
               kSaturated;
    }
    return buf;
  }
};

/// -1, 0 or 1 as n-gram i of a orders before, with or after n-gram j of b.
/// `heads_exact`: both orders' heads are whole, so heads decide alone.
int gram_compare(const OrderView& a, std::size_t i, const OrderView& b,
                 std::size_t j, bool heads_exact) {
  if (a.heads[i] != b.heads[j]) return a.heads[i] < b.heads[j] ? -1 : 1;
  if (heads_exact) return 0;
  std::uint32_t a_buf[kHeadIds], b_buf[kHeadIds];
  const std::uint32_t* x = a.gram(i, a_buf);
  const std::uint32_t* y = b.gram(j, b_buf);
  for (std::size_t k = 0; k < a.n; ++k) {
    if (x[k] != y[k]) return x[k] < y[k] ? -1 : 1;
  }
  return 0;
}

/// (Re)build p's n-gram lists from p.ids for orders 1..p.max_order,
/// reusing capacity.
void fill_grams(NgramProfile& p) {
  struct Entry {
    std::uint64_t head;
    std::uint32_t pos;
  };
  thread_local std::vector<std::uint64_t> heads;  // by position
  thread_local std::vector<Entry> entries;
  const std::size_t length = p.ids.size();
  const std::uint32_t* ids = p.ids.data();
  p.small = std::all_of(p.ids.begin(), p.ids.end(),
                        [](std::uint32_t id) { return id < kSaturated; });
  p.heads.clear();
  p.grams.clear();
  p.heads.reserve(p.max_order * length);
  heads.assign(length, 0);
  for (std::size_t n = 1; n <= p.max_order; ++n) {
    const std::size_t count = grams_of_order(length, n);
    if (n <= kHeadIds) {  // extend each head by the n-gram's last id
      for (std::size_t i = 0; i < count; ++i) {
        heads[i] = (heads[i] << 16) | std::min(ids[i + n - 1], kSaturated);
      }
    }
    const std::size_t first = p.heads.size();
    if (heads_whole(p, n)) {
      p.heads.insert(p.heads.end(), heads.begin(),
                     heads.begin() + static_cast<std::ptrdiff_t>(count));
      // Sensor sentences are often one repeated word: already sorted.
      const auto from = p.heads.begin() + static_cast<std::ptrdiff_t>(first);
      if (!std::is_sorted(from, p.heads.end())) std::sort(from, p.heads.end());
      continue;
    }
    entries.clear();
    for (std::size_t i = 0; i < count; ++i) {
      entries.push_back({heads[i], static_cast<std::uint32_t>(i)});
    }
    std::sort(entries.begin(), entries.end(),
              [ids, n](const Entry& a, const Entry& b) {
                if (a.head != b.head) return a.head < b.head;
                return std::lexicographical_compare(
                    ids + a.pos, ids + a.pos + n, ids + b.pos, ids + b.pos + n);
              });
    for (const Entry& e : entries) {
      p.heads.push_back(e.head);
      p.grams.push_back(e.pos);
    }
  }
}

/// The n-gram counting routine every entry point shares: add one pair's
/// clipped matches (modified precision: each candidate n-gram counts at most
/// as often as the reference holds it) and candidate n-gram counts, per
/// order, by merging the two sorted runs of each order.
void accumulate_pair(const NgramProfile& cand, const NgramProfile& ref,
                     std::size_t max_order, std::size_t* matched,
                     std::size_t* total) {
  const std::uint64_t* ch = cand.heads.data();
  const std::uint64_t* rh = ref.heads.data();
  const std::uint32_t* cg = cand.grams.data();
  const std::uint32_t* rg = ref.grams.data();
  for (std::size_t n = 1; n <= max_order; ++n) {
    const std::size_t nc = grams_of_order(cand.ids.size(), n);
    const std::size_t nr = grams_of_order(ref.ids.size(), n);
    const bool c_whole = heads_whole(cand, n);
    const bool r_whole = heads_whole(ref, n);
    const OrderView cv{cand.ids.data(), ch, c_whole ? nullptr : cg, n};
    const OrderView rv{ref.ids.data(), rh, r_whole ? nullptr : rg, n};
    const bool heads_exact = c_whole && r_whole;
    total[n - 1] += nc;
    std::size_t c = 0, r = 0;
    while (c < nc && r < nr) {
      const int order = gram_compare(rv, r, cv, c, heads_exact);
      if (order < 0) {
        ++r;
        continue;
      }
      const std::size_t key = c;
      std::size_t c_run = 0;
      while (c < nc && gram_compare(cv, c, cv, key, heads_exact) == 0) {
        ++c;
        ++c_run;
      }
      if (order == 0) {
        std::size_t r_run = 0;
        while (r < nr && gram_compare(rv, r, cv, key, heads_exact) == 0) {
          ++r;
          ++r_run;
        }
        matched[n - 1] += std::min(c_run, r_run);
      }
    }
    ch += nc;
    rh += nr;
    if (!c_whole) cg += nc;
    if (!r_whole) rg += nr;
  }
}

/// Profiles of one string candidate/reference pair, reused across the
/// pairs of a corpus. Equal strings get equal ids and distinct strings
/// distinct ones: a token repeating its predecessor takes its id, the rest
/// are ranked in (hash, string) order.
struct PairProfiles {
  NgramProfile cand, ref;
  std::vector<const std::string*> tokens;  ///< candidate ++ reference
  std::vector<std::uint64_t> keys;  ///< 32-bit hash << 32 | token index

  void build(const Sentence& c, const Sentence& r, std::size_t max_order) {
    constexpr std::uint32_t kRepeat = 0xFFFFFFFFu;
    std::vector<std::uint32_t>& out = cand.ids;  // both sentences, for now
    tokens.clear();
    keys.clear();
    out.clear();
    tokens.reserve(c.size() + r.size());
    out.reserve(c.size() + r.size());
    const std::hash<std::string> hash;
    for (const Sentence* s : {&c, &r}) {
      for (std::size_t i = 0; i < s->size(); ++i) {
        const bool repeat = i > 0 && (*s)[i] == (*s)[i - 1];
        if (!repeat) {
          keys.push_back(static_cast<std::uint64_t>(hash((*s)[i])) << 32 |
                         tokens.size());
        }
        out.push_back(repeat ? kRepeat : 0);
        tokens.push_back(&(*s)[i]);
      }
    }
    const auto text = [this](std::uint64_t key) -> const std::string& {
      return *tokens[key & 0xFFFFFFFFu];
    };
    // Equal hashes end up adjacent; ordering each run by string makes the
    // distinct strings of a hash collision adjacent too.
    std::sort(keys.begin(), keys.end());
    for (std::size_t k = 0, end = 0; k < keys.size(); k = end) {
      end = k + 1;
      while (end < keys.size() && keys[end] >> 32 == keys[k] >> 32) ++end;
      std::sort(keys.begin() + static_cast<std::ptrdiff_t>(k),
                keys.begin() + static_cast<std::ptrdiff_t>(end),
                [&text](std::uint64_t a, std::uint64_t b) {
                  return text(a) < text(b);
                });
    }
    std::uint32_t id = 0;
    for (std::size_t k = 0; k < keys.size(); ++k) {
      if (k > 0 && (keys[k] >> 32 != keys[k - 1] >> 32 ||
                    text(keys[k]) != text(keys[k - 1]))) {
        ++id;
      }
      out[keys[k] & 0xFFFFFFFFu] = id;
    }
    for (std::size_t at = 1; at < out.size(); ++at) {
      if (out[at] == kRepeat) out[at] = out[at - 1];
    }
    ref.ids.assign(out.begin() + static_cast<std::ptrdiff_t>(c.size()),
                   out.end());
    out.resize(c.size());
    cand.max_order = ref.max_order = max_order;
    fill_grams(cand);
    fill_grams(ref);
  }
};

/// The brevity penalty of a candidate of length c against a reference of
/// length r: 1 when c >= r, 0 for an empty candidate, else e^(1 - r/c).
double brevity_penalty(std::size_t c, std::size_t r) {
  if (c >= r) return 1.0;
  if (c == 0) return 0.0;
  return std::exp(1.0 - static_cast<double>(r) / static_cast<double>(c));
}

/// Shared scoring tail: turn accumulated clipped counts + lengths into the
/// smoothed geometric-mean BLEU. Identical arithmetic for every entry point.
/// Writes each order's precision to `precisions` when it is not null; past
/// an unsmoothed zero precision it writes nothing more.
double finalize(const std::size_t* matched, const std::size_t* total,
                std::size_t candidate_length, std::size_t reference_length,
                const BleuOptions& options, double* precisions) {
  double log_precision_sum = 0.0;
  for (std::size_t order = 0; order < options.max_order; ++order) {
    double num = static_cast<double>(matched[order]);
    double den = static_cast<double>(total[order]);
    if (options.smooth && (num == 0.0 || den == 0.0)) {
      num += 1.0;
      den += 1.0;
    }
    // Unsmoothed zero precision: BLEU is exactly 0.
    if (num == 0.0 || den == 0.0) return 0.0;
    if (precisions != nullptr) precisions[order] = num / den;
    log_precision_sum += std::log(num / den);
  }

  const double geo_mean =
      std::exp(log_precision_sum / static_cast<double>(options.max_order));
  return 100.0 * geo_mean *
         brevity_penalty(candidate_length, reference_length);
}

/// finalize() with its inputs and every precision in a BleuBreakdown.
BleuBreakdown breakdown(const std::size_t* matched, const std::size_t* total,
                        std::size_t candidate_length,
                        std::size_t reference_length,
                        const BleuOptions& options) {
  BleuBreakdown out;
  out.precisions.assign(options.max_order, 0.0);
  out.candidate_length = candidate_length;
  out.reference_length = reference_length;
  out.brevity_penalty = brevity_penalty(candidate_length, reference_length);
  out.score = finalize(matched, total, candidate_length, reference_length,
                       options, out.precisions.data());
  return out;
}

/// Zeroed clipped-match and n-gram counts for max_order orders: on the
/// stack up to kStackOrders orders, on the heap past them.
class Counts {
 public:
  explicit Counts(std::size_t max_order) : max_order_(max_order) {
    if (max_order > kStackOrders) heap_.assign(2 * max_order, 0);
  }
  std::size_t* matched() { return heap_.empty() ? stack_ : heap_.data(); }
  std::size_t* total() { return matched() + max_order_; }

 private:
  static constexpr std::size_t kStackOrders = 8;
  std::size_t max_order_;
  std::size_t stack_[2 * kStackOrders] = {};
  std::vector<std::size_t> heap_;
};

/// The checks of the profile entry points.
void expect_profiles(const NgramProfile& candidate,
                     const NgramProfile& reference,
                     const BleuOptions& options) {
  DESMINE_EXPECTS(options.max_order >= 1, "max_order >= 1");
  DESMINE_EXPECTS(candidate.max_order >= options.max_order &&
                      reference.max_order >= options.max_order,
                  "n-gram profile built for a lower max_order");
}

}  // namespace

NgramProfile ngram_profile(std::vector<std::uint32_t> ids,
                           std::size_t max_order) {
  DESMINE_EXPECTS(max_order >= 1, "max_order >= 1");
  NgramProfile p;
  p.ids = std::move(ids);
  p.max_order = max_order;
  fill_grams(p);
  return p;
}

BleuBreakdown sentence_bleu(const NgramProfile& candidate,
                            const NgramProfile& reference,
                            const BleuOptions& options) {
  expect_profiles(candidate, reference, options);
  Counts counts(options.max_order);
  accumulate_pair(candidate, reference, options.max_order, counts.matched(),
                  counts.total());
  return breakdown(counts.matched(), counts.total(), candidate.ids.size(),
                   reference.ids.size(), options);
}

double sentence_bleu_score(const NgramProfile& candidate,
                           const NgramProfile& reference,
                           const BleuOptions& options) {
  expect_profiles(candidate, reference, options);
  Counts counts(options.max_order);
  accumulate_pair(candidate, reference, options.max_order, counts.matched(),
                  counts.total());
  return finalize(counts.matched(), counts.total(), candidate.ids.size(),
                  reference.ids.size(), options, nullptr);
}

BleuBreakdown corpus_bleu(const Corpus& candidates, const Corpus& references,
                          const BleuOptions& options) {
  DESMINE_EXPECTS(candidates.size() == references.size(),
                  "candidate/reference corpora must align");
  DESMINE_EXPECTS(options.max_order >= 1, "max_order >= 1");

  if (candidates.empty()) {
    BleuBreakdown out;
    out.precisions.assign(options.max_order, 0.0);
    return out;
  }

  Counts counts(options.max_order);
  std::size_t candidate_length = 0, reference_length = 0;
  PairProfiles pair;
  for (std::size_t s = 0; s < candidates.size(); ++s) {
    candidate_length += candidates[s].size();
    reference_length += references[s].size();
    pair.build(candidates[s], references[s], options.max_order);
    accumulate_pair(pair.cand, pair.ref, options.max_order, counts.matched(),
                    counts.total());
  }
  return breakdown(counts.matched(), counts.total(), candidate_length,
                   reference_length, options);
}

BleuBreakdown sentence_bleu(const Sentence& candidate,
                            const Sentence& reference,
                            const BleuOptions& options) {
  DESMINE_EXPECTS(options.max_order >= 1, "max_order >= 1");
  PairProfiles pair;
  pair.build(candidate, reference, options.max_order);
  return sentence_bleu(pair.cand, pair.ref, options);
}

}  // namespace desmine::text
