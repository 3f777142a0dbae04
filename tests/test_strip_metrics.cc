/**
 * @file
 * tools/strip_metrics, the cut behind the observer-effect gates: it
 * removes exactly each point's ",\n      \"metrics\": {" ... "\n      }"
 * member, wherever the point sits and whatever the member nests, and
 * fails on a member that never closes.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct Stripped
{
    int status;
    std::string out;
};

Stripped
strip(const std::string &doc)
{
    // ctest runs each test as its own process, concurrently.
    const std::string base =
        ::testing::TempDir() + "strip_metrics_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    const std::string in = base + "_in.json";
    const std::string out = base + "_out.json";
    std::ofstream(in, std::ios::binary) << doc;
    const std::string cmd =
        std::string(STRIP_METRICS) + " < " + in + " > " + out;
    const int status = std::system(cmd.c_str());
    std::ostringstream ss;
    ss << std::ifstream(out, std::ios::binary).rdbuf();
    std::remove(in.c_str());
    std::remove(out.c_str());
    return {status, ss.str()};
}

/** A point as the sweep runner writes it; no metrics member if empty. */
std::string
point(const std::string &name, const std::string &metrics)
{
    std::string p = "    {\n      \"name\": \"" + name + "\",\n" +
                    "      \"seconds\": 1.5";
    if (!metrics.empty()) {
        p += ",\n      \"metrics\": {\n" + metrics + "\n      }";
    }
    return p + "\n    }";
}

std::string
document(const std::vector<std::string> &points)
{
    std::string d = "{\n  \"schema\": \"cereal-bench-v1\",\n  \"points\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
        d += points[i] + (i + 1 < points.size() ? ",\n" : "\n");
    }
    return d + "  ]\n}\n";
}

const std::string kSeries = "        \"interval\": 1000,\n"
                            "        \"series\": [\n"
                            "          {\n"
                            "            \"name\": \"dram.bw\",\n"
                            "            \"values\": [0.5, {\"x\": {}}]\n"
                            "          }\n"
                            "        ]";

} // namespace

TEST(StripMetrics, CutsTheMemberFirstInTheMiddleAndLast)
{
    // Bit i of the mask gives point i a metrics member: first, middle,
    // last and every combination of them.
    for (unsigned mask = 0; mask < 8; ++mask) {
        std::vector<std::string> with, without;
        for (unsigned i = 0; i < 3; ++i) {
            const std::string name = "p" + std::to_string(i);
            with.push_back(point(name, (mask >> i) & 1 ? kSeries : ""));
            without.push_back(point(name, ""));
        }
        const Stripped s = strip(document(with));
        EXPECT_EQ(s.status, 0) << mask;
        EXPECT_EQ(s.out, document(without)) << mask;
    }
}

TEST(StripMetrics, NestedBracesDoNotEndTheMember)
{
    // Closing braces deeper than six spaces, and on the member's own
    // lines, belong to the member.
    const std::string nested = "        \"a\": {\n"
                               "          \"b\": {\n"
                               "            \"c\": {}\n"
                               "          }\n"
                               "        },\n"
                               "        \"d\": {\"e\": {\"f\": 0}}";
    const Stripped s = strip(document({point("p", nested)}));
    EXPECT_EQ(s.status, 0);
    EXPECT_EQ(s.out, document({point("p", "")}));
}

TEST(StripMetrics, MarkersAcrossReadChunks)
{
    // The tool reads 64 KiB at a time; walk both markers across that
    // boundary, and let one member span several chunks.
    std::string big = kSeries;
    while (big.size() < 200000) {
        big += ",\n        \"pad\": " + std::to_string(big.size());
    }
    for (std::size_t pad = 65500; pad < 65540; ++pad) {
        const std::string name(pad, 'n');
        const Stripped s =
            strip(document({point(name, kSeries), point("q", big)}));
        EXPECT_EQ(s.status, 0) << pad;
        EXPECT_EQ(s.out, document({point(name, ""), point("q", "")}))
            << pad;
    }
}

TEST(StripMetrics, UnterminatedMemberFails)
{
    const std::string doc = document({point("p", "")}) +
                            ",\n      \"metrics\": {\n        \"a\": 1\n";
    EXPECT_NE(strip(doc).status, 0);
}
