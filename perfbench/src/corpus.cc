#include "corpus.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "corpus/page_generator.h"
#include "corpus/rng.h"
#include "util/strings.h"
#include "util/url.h"

namespace perfbench {

using weblint::PageGenerator;
using weblint::SplitMix64;
using weblint::StrFormat;

namespace {

constexpr std::size_t kSections = 4;
constexpr std::size_t kMinShapedBytes = 2 * 1024;
constexpr double kShapedSizeDoublings = 6.0;  // 2 KiB .. 128 KiB, log-uniform.

}  // namespace

std::vector<const CorpusPage*> SiteCorpus::Documents() const {
  std::vector<const CorpusPage*> docs;
  for (const CorpusPage& page : pages) {
    if (page.kind != "index") {
      docs.push_back(&page);
    }
  }
  return docs;
}

SiteCorpus MakeSiteCorpus(std::uint64_t seed) {
  const std::size_t documents = kSiteDocuments;
  SiteCorpus corpus;
  SplitMix64 rng(seed);
  PageGenerator generator(seed ^ 0x9e3779b97f4a7c15ULL);

  // Stratified draws: the seed decides which document gets which kind, size
  // and defect count, but every seed covers the same strata, so corpus size
  // and mix barely move from seed to seed.
  std::vector<std::size_t> order(documents);
  for (std::size_t i = 0; i < documents; ++i) {
    order[i] = i;
  }
  for (std::size_t i = documents; i > 1; --i) {
    std::swap(order[i - 1], order[rng.Below(i)]);
  }
  const std::size_t defective = documents * 3 / 10;
  const std::size_t shaped = documents - defective;

  std::vector<std::vector<std::string>> section_links(kSections);
  std::vector<CorpusPage> docs;
  docs.reserve(documents);
  for (std::size_t i = 0; i < documents; ++i) {
    CorpusPage page;
    const std::size_t section = rng.Below(kSections);
    std::string number = std::to_string(i);
    number.insert(0, number.size() < 4 ? 4 - number.size() : 0, '0');
    const std::string file = "doc" + number + ".html";
    page.path = StrFormat("sec%d/%s", section, file);
    const std::size_t stratum = order[i];
    if (stratum < defective) {
      const std::size_t defects = 1 + stratum % weblint::kDefectKindCount;
      weblint::GeneratedPage generated =
          generator.GenerateDefective(4 + (stratum / weblint::kDefectKindCount) % 37, defects);
      std::set<std::string> ids;
      for (const weblint::SeededDefect& defect : generated.defects) {
        ids.insert(weblint::DefectExpectedMessage(defect.kind));
      }
      page.expected_ids.assign(ids.begin(), ids.end());
      page.html = std::move(generated.html);
      page.kind = "defective";
    } else {
      const std::size_t j = stratum - defective;
      const auto shape = static_cast<PageGenerator::Shape>(j % 5);
      const double doublings = kShapedSizeDoublings *
                               (static_cast<double>(j) + static_cast<double>(rng.Below(1000)) / 1000.0) /
                               static_cast<double>(shaped);
      const auto bytes = static_cast<std::size_t>(static_cast<double>(kMinShapedBytes) *
                                                  std::pow(2.0, doublings));
      page.html = generator.GenerateShaped(shape, bytes);
      page.kind = weblint::ShapeName(shape);
    }
    page.orphan = stratum % 50 == 49;
    if (!page.orphan) {
      section_links[section].push_back(file);
    }
    docs.push_back(std::move(page));
  }

  std::vector<std::string> root_links;
  for (std::size_t s = 0; s < kSections; ++s) {
    root_links.push_back(StrFormat("sec%d/index.html", s));
  }
  corpus.pages.push_back(
      {"index.html", generator.ProsePage("site index", 3, root_links), "index", {}, false});
  for (std::size_t s = 0; s < kSections; ++s) {
    corpus.pages.push_back({StrFormat("sec%d/index.html", s),
                            generator.ProsePage(StrFormat("section %d", s), 2, section_links[s]),
                            "index",
                            {},
                            false});
  }
  for (CorpusPage& page : docs) {
    corpus.pages.push_back(std::move(page));
  }
  std::sort(corpus.pages.begin(), corpus.pages.end(),
            [](const CorpusPage& a, const CorpusPage& b) { return a.path < b.path; });
  for (const CorpusPage& page : corpus.pages) {
    corpus.bytes += page.html.size();
  }
  return corpus;
}

std::size_t CrawlSite::CheckedPages() const {
  return site.pages.size() - site.orphan_paths.size() - site.private_paths.size();
}

CrawlSite MakeCrawlSite(std::uint64_t seed, const std::string& host) {
  weblint::SiteSpec spec;
  spec.host = host;
  spec.pages = kCrawlPages;
  spec.links_per_page = 4;
  spec.broken_links = 4;
  spec.orphan_pages = 2;
  spec.redirects = 3;
  spec.paragraphs_per_page = 4;
  spec.private_pages = 2;
  spec.seed = seed;
  CrawlSite crawl{weblint::GenerateSite(spec), {}};

  // site.pages[0] is the index; [1, kCrawlPages] are the reachable pages.
  SplitMix64 rng(seed ^ 0xe7e7ULL);
  for (std::size_t i = 0; i < kCrawlImages; ++i) {
    std::string& html = crawl.site.pages[1 + rng.Below(kCrawlPages)].html;
    html.insert(html.rfind("</BODY>"),
                StrFormat("<P><IMG SRC=\"img/pic%d.gif\" ALT=\"picture %d\" WIDTH=\"16\" "
                          "HEIGHT=\"16\"></P>\n",
                          i, i));
    crawl.image_paths.push_back(StrFormat("/img/pic%d.gif", i));
  }
  return crawl;
}

std::map<std::string, OriginResource> CrawlResources(const CrawlSite& crawl) {
  std::map<std::string, OriginResource> resources;
  for (const auto& page : crawl.site.pages) {
    resources[page.path] = {200, "text/html", page.html, ""};
  }
  for (const auto& [from, to] : crawl.site.redirects) {
    resources[from] = {302, "text/html", "<HTML><BODY>moved</BODY></HTML>\n", to};
  }
  for (const std::string& path : crawl.image_paths) {
    resources[path] = {200, "image/gif", "GIF89a", ""};
  }
  resources["/robots.txt"] = {200, "text/plain", crawl.site.robots_txt, ""};
  return resources;
}

std::vector<GatewayRequest> MakeGatewayMix(const SiteCorpus& corpus, std::uint64_t seed,
                                           std::size_t count, int origin_port) {
  // Every document once per cycle, in a seeded order. Paste and URL
  // requests alternate, and the mode flips from one cycle to the next, so
  // two cycles submit every document once each way.
  std::vector<const CorpusPage*> docs = corpus.Documents();
  SplitMix64 rng(seed ^ 0x6a7e3a1ULL);
  for (std::size_t i = docs.size(); i > 1; --i) {
    std::swap(docs[i - 1], docs[rng.Below(i)]);
  }
  std::vector<GatewayRequest> mix;
  mix.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const CorpusPage& page = *docs[i % docs.size()];
    GatewayRequest request;
    request.expected_ids = page.expected_ids;
    request.paste = (i + i / docs.size()) % 2 == 0;
    if (request.paste) {
      const std::string body = "html=" + weblint::UrlEncode(page.html) + "&format=short";
      request.raw = StrFormat(
          "POST / HTTP/1.1\r\nHost: 127.0.0.1\r\n"
          "Content-Type: application/x-www-form-urlencoded\r\nContent-Length: %d\r\n\r\n",
          body.size());
      request.raw += body;
    } else {
      const std::string url = StrFormat("http://127.0.0.1:%d/%s", origin_port, page.path);
      request.raw = StrFormat("GET /?url=%s&format=short HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n",
                              weblint::UrlEncode(url));
    }
    mix.push_back(std::move(request));
  }
  return mix;
}

std::string JsonString(const std::string& s) { return "\"" + weblint::JsonEscape(s) + "\""; }

std::string JsonStringList(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i > 0 ? "," : "") + JsonString(items[i]);
  }
  return out + "]";
}

}  // namespace perfbench
