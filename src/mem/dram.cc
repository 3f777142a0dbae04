#include "mem/dram.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace cereal {

Dram::Dram(const std::string &, EventQueue &, const DramConfig &cfg)
    : cfg_(cfg)
{
    panic_if(!isPowerOf2(cfg_.burstBytes), "burst size must be 2^n");
    panic_if(!isPowerOf2(cfg_.numChannels), "channel count must be 2^n");
    panic_if(!isPowerOf2(cfg_.banksPerChannel), "bank count must be 2^n");
    panic_if(!isPowerOf2(cfg_.rowBytes) || cfg_.rowBytes < cfg_.burstBytes,
             "row size must be 2^n bytes and hold at least one burst");
    burstShift_ = static_cast<unsigned>(std::countr_zero(cfg_.burstBytes));
    rowShift_ = static_cast<unsigned>(std::countr_zero(cfg_.rowBytes) +
                                      std::countr_zero(cfg_.numChannels));
    bankBits_ =
        static_cast<unsigned>(std::countr_zero(cfg_.banksPerChannel));

    channels_.resize(cfg_.numChannels);
    for (auto &ch : channels_) {
        ch.banks.resize(cfg_.banksPerChannel);
    }

    tRCD_ = nsToTicks(cfg_.tRCDns);
    tCAS_ = nsToTicks(cfg_.tCASns);
    tRP_ = nsToTicks(cfg_.tRPns);
    tBURST_ = nsToTicks(cfg_.tBURSTns);
    tCtrl_ = nsToTicks(cfg_.tCtrlNs);

    chBytes_.assign(cfg_.numChannels, 0);
    metrics_ = metrics::Group(metrics::current(), "mem.dram");
    if (metrics_.enabled()) {
        // One burst occupies a channel for tBURST_ ticks, so peak
        // per-channel throughput is burstBytes / tBURST_ bytes/tick.
        const double per_tick_peak =
            static_cast<double>(cfg_.burstBytes) /
            static_cast<double>(tBURST_);
        for (unsigned i = 0; i < cfg_.numChannels; ++i) {
            const std::string ch = "ch" + std::to_string(i);
            metrics_.rate(
                (ch + ".bw_util").c_str(),
                "achieved / peak bandwidth of this channel",
                [this, i] {
                    return static_cast<double>(chBytes_[i]);
                },
                1.0 / per_tick_peak);
            metrics_.gauge(
                (ch + ".queue_depth").c_str(),
                "bursts queued ahead on this channel's data bus",
                [this, i](Tick t) {
                    const Tick free = channels_[i].busFreeAt;
                    return free > t ? static_cast<double>(free - t) /
                                          static_cast<double>(tBURST_)
                                    : 0.0;
                });
        }
        metrics_.rate(
            "bw_util", "achieved / peak bandwidth across all channels",
            [this] {
                std::uint64_t total = 0;
                for (auto b : chBytes_) {
                    total += b;
                }
                return static_cast<double>(total);
            },
            1.0 / (per_tick_peak *
                   static_cast<double>(cfg_.numChannels)));
        metrics_.ratio(
            "row_hit_rate", "row-buffer hits per access this interval",
            [this] { return static_cast<double>(rowHits_); },
            [this] { return static_cast<double>(accesses()); });
        metrics_.gauge("reads", "read bursts serviced", [this](Tick) {
            return static_cast<double>(reads_);
        });
        metrics_.gauge("writes", "write bursts serviced", [this](Tick) {
            return static_cast<double>(writes_);
        });
    }
}

void
Dram::decode(Addr addr, unsigned &channel, unsigned &bank, Addr &row) const
{
    // Channel-interleave consecutive bursts so streaming accesses spread
    // across channels (matching typical server mappings); banks
    // interleave above channels, rows above banks.
    // Every geometry term is 2^n, so the fields are bit ranges, low to
    // high: burst offset, channel, burst within the row, bank, row.
    channel = static_cast<unsigned>((addr >> burstShift_) &
                                    (cfg_.numChannels - 1));
    const Addr row_in_channel = addr >> rowShift_;
    bank = static_cast<unsigned>(row_in_channel &
                                 (cfg_.banksPerChannel - 1));
    row = row_in_channel >> bankBits_;
}

DramResult
Dram::access(Addr addr, bool write, Tick issue)
{
    unsigned ch_idx, bank_idx;
    Addr row;
    decode(addr, ch_idx, bank_idx, row);
    Channel &ch = channels_[ch_idx];
    Bank &bank = ch.banks[bank_idx];

    Tick start = std::max(issue, bank.readyAt);

    bool row_hit = (bank.openRow == row);
    Tick access_lat = tCAS_;
    if (!row_hit) {
        // Closed bank needs just an activate; a conflicting open row
        // needs precharge + activate.
        access_lat += (bank.openRow == kBadAddr) ? tRCD_ : (tRP_ + tRCD_);
        bank.openRow = row;
    }

    // Data burst begins once the column access completes and the channel
    // data bus is free.
    Tick data_start = std::max(start + access_lat, ch.busFreeAt);
    Tick data_end = data_start + tBURST_;
    ch.busFreeAt = data_end;

    // Column commands pipeline: on a row hit the bank can accept the
    // next CAS after one command cadence (tCCD ~= tBURST), letting an
    // open-row stream saturate the data bus. A row change occupies the
    // bank for the whole precharge/activate sequence.
    bank.readyAt = row_hit ? start + tBURST_ : start + access_lat;

    Tick complete = data_end + tCtrl_;

    if (!chTrace_.empty()) {
        chTrace_[ch_idx].span(write ? "wr_burst" : "rd_burst", data_start,
                              data_end);
    }

    if (write) {
        ++writes_;
    } else {
        ++reads_;
    }
    rowHits_ += row_hit;
    chBytes_[ch_idx] += cfg_.burstBytes;
    metrics_.tick(complete);

    return {complete, row_hit};
}

Tick
Dram::accessRange(Addr addr, Addr bytes, bool write, Tick issue)
{
    if (bytes == 0) {
        return issue;
    }
    Addr first = roundDown(addr, cfg_.burstBytes);
    Addr last = roundDown(addr + bytes - 1, cfg_.burstBytes);

    Tick done = issue;
    for (Addr a = first; a <= last; a += cfg_.burstBytes) {
        done = std::max(done, access(a, write, issue).completeTick);
    }
    return done;
}

double
Dram::utilization(Tick window_start, Tick window_end) const
{
    if (window_end <= window_start) {
        return 0;
    }
    double secs = ticksToSeconds(window_end - window_start);
    double bytes = static_cast<double>(accesses() * cfg_.burstBytes);
    return (bytes / secs) / cfg_.peakBandwidth();
}

void
Dram::setTrace(const trace::TraceEmitter &em)
{
    chTrace_.clear();
    if (!em.enabled()) {
        return;
    }
    chTrace_.reserve(cfg_.numChannels);
    for (unsigned i = 0; i < cfg_.numChannels; ++i) {
        chTrace_.push_back(em.sub(("ch" + std::to_string(i)).c_str()));
    }
}

} // namespace cereal
