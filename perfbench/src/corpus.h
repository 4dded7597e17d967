// Seeded benchmark inputs, built only from the repo's src/corpus generators.
//
// Every input carries its ground truth (seeded defects, orphans, broken
// links, redirects, robots-private pages), so output checks compare against
// what the generator put in, never against the program's own earlier output.
#ifndef PERFBENCH_CORPUS_H_
#define PERFBENCH_CORPUS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "corpus/site_generator.h"
#include "origin.h"

namespace perfbench {

// The workload definition, shared by pb_tool (the end-to-end workloads) and
// pb_layers (the traced replay). Changing one changes what every later run
// is compared against.
constexpr std::size_t kSiteDocuments = 1000;    // site-cold / site-warm / gateway corpus (~23 MB).
constexpr std::size_t kCrawlPages = 300;        // Crawl site: reachable pages beyond the index.
constexpr std::size_t kCrawlImages = 8;         // Crawl IMG links, validated by HEAD.
// The crawl origin's fixed per-response delay. At the seed commit an
// undelayed crawl of this site takes ~41 ms of wall time, and 312 requests x
// 500 us / 4 in flight is a 39 ms delay floor: the crossover where a crawl
// that overlapped fetches perfectly would be as much fetch-bound as
// work-bound, so a faster crawl loop and better fetch overlap both move it.
constexpr std::uint64_t kCrawlOriginDelayUs = 500;
constexpr std::uint64_t kGatewayOriginDelayUs = 0;  // ?url= fetches are answered at once.

struct CorpusPage {
  std::string path;                       // Relative to the site root: "sec1/doc0042.html".
  std::string html;
  std::string kind;                       // "index", "defective" or a ShapeName().
  std::vector<std::string> expected_ids;  // DefectExpectedMessage of each seeded defect.
  bool orphan = false;                    // Linked from no other page.
};

// The site-cold / site-warm corpus: a root index linking per-section
// indexes, which link their documents. ~30% of documents come from
// GenerateDefective; the rest are clean GenerateShaped pages of 2-128 KiB
// spread over all five shapes. About 2% of documents are orphans.
struct SiteCorpus {
  std::vector<CorpusPage> pages;
  std::size_t bytes = 0;

  // Documents only (no index pages), in path order: the gateway's corpus.
  std::vector<const CorpusPage*> Documents() const;
};

// kSiteDocuments documents, from `seed`.
SiteCorpus MakeSiteCorpus(std::uint64_t seed);

// The crawl workload's site: GenerateSite at `host`, plus kCrawlImages IMG
// links from its pages. A crawl follows only hypertext links, so poacher
// validates each image with one HEAD request. (Links to another host would
// not do: the robot marks an off-host URL visited when it skips it, so
// poacher never validates it.)
struct CrawlSite {
  weblint::GeneratedSite site;
  std::vector<std::string> image_paths;  // Distinct, e.g. "/img/pic3.gif".

  // Pages the crawl checks: everything but orphans and robots-private pages.
  std::size_t CheckedPages() const;
};

CrawlSite MakeCrawlSite(std::uint64_t seed, const std::string& host);

// What an origin serving `site` holds, keyed by path.
std::map<std::string, OriginResource> CrawlResources(const CrawlSite& site);

// One gateway request template: a pasted-HTML POST or a ?url= GET.
struct GatewayRequest {
  std::string raw;                        // Complete HTTP/1.1 request bytes.
  std::vector<std::string> expected_ids;  // Must appear as "[id]" in the reply.
  bool paste = false;
};

// A seeded 50/50 mix over the corpus documents; 2 x documents requests
// submit every document once as a paste and once as a URL. URL requests
// point at the origin on `origin_port`, which serves the same corpus at the
// same paths.
std::vector<GatewayRequest> MakeGatewayMix(const SiteCorpus& corpus, std::uint64_t seed,
                                           std::size_t count, int origin_port);

// Minimal JSON output helpers.
std::string JsonString(const std::string& s);
std::string JsonStringList(const std::vector<std::string>& items);

}  // namespace perfbench

#endif  // PERFBENCH_CORPUS_H_
