/**
 * @file
 * Cut every point's "metrics" member out of a BENCH_<name>.json
 * document, reading stdin and writing stdout:
 *
 *   strip_metrics < BENCH_x_metrics.json > BENCH_x_stripped.json
 *
 * The sweep runner writes the member as a point's last member, six
 * spaces deep, and everything inside it sits deeper, so the member runs
 * from ",\n      \"metrics\": {" to the next "\n      }". Cutting exactly
 * those bytes turns a --metrics document into the one the same run
 * writes without --metrics, which is what the observer-effect gates
 * compare. The document is streamed: it can exceed 100 MB.
 *
 * Exit status 0 on success, 1 on an unterminated member or an I/O error.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <string_view>

int
main()
{
    constexpr std::string_view open = ",\n      \"metrics\": {";
    constexpr std::string_view close = "\n      }";

    std::string buf;
    bool inMember = false;
    bool eof = false;
    while (!eof) {
        char chunk[1 << 16];
        const std::size_t got = std::fread(chunk, 1, sizeof chunk, stdin);
        eof = got < sizeof chunk;
        buf.append(chunk, got);

        // Outside a member, the bytes before the next open marker are
        // copied out; inside one, they are dropped up to and including
        // the close marker.
        std::size_t pos = 0;
        for (;;) {
            const std::string_view marker = inMember ? close : open;
            const std::size_t at = buf.find(marker, pos);
            if (at == std::string::npos) {
                break;
            }
            if (!inMember) {
                std::fwrite(buf.data() + pos, 1, at - pos, stdout);
            }
            pos = at + marker.size();
            inMember = !inMember;
        }
        // Hold back a tail that the next chunk may complete into a
        // marker.
        const std::size_t held =
            eof ? 0
                : std::min(buf.size() - pos,
                           (inMember ? close : open).size() - 1);
        if (!inMember) {
            std::fwrite(buf.data() + pos, 1, buf.size() - held - pos,
                        stdout);
        }
        buf.erase(0, buf.size() - held);
    }

    if (inMember) {
        std::fprintf(stderr, "strip_metrics: unterminated metrics member\n");
        return 1;
    }
    if (std::ferror(stdin) || std::fflush(stdout) != 0 ||
        std::ferror(stdout)) {
        std::fprintf(stderr, "strip_metrics: I/O error\n");
        return 1;
    }
    return 0;
}
