#include "mem/dram.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace cereal {

Dram::Dram(const std::string &name, EventQueue &eq, const DramConfig &cfg)
    : SimObject(name, eq), cfg_(cfg)
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

    stats().add("reads", "read bursts serviced", statReads_);
    stats().add("writes", "write bursts serviced", statWrites_);
    stats().add("rowHits", "row-buffer hits", statRowHits_);
    stats().add("rowMisses", "row-buffer misses", statRowMisses_);

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
        // Aggregate closures read the never-reset per-channel/cum
        // counters so a resetStats() mid-run cannot produce negative
        // deltas.
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
            [this] { return static_cast<double>(cumRowHits_); },
            [this] { return static_cast<double>(cumAccesses_); });
        // Cumulative counters come straight off the StatGroup, via
        // the by-name bridge the metrics registry provides.
        metrics_.gaugeFromStat(stats(), "reads");
        metrics_.gaugeFromStat(stats(), "writes");
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

    ++accesses_;
    ++cumAccesses_;
    if (write) {
        bytesWritten_ += cfg_.burstBytes;
        ++statWrites_;
    } else {
        bytesRead_ += cfg_.burstBytes;
        ++statReads_;
    }
    if (row_hit) {
        ++rowHits_;
        ++cumRowHits_;
        ++statRowHits_;
    } else {
        ++statRowMisses_;
    }
    latencySumNs_ += static_cast<double>(complete - issue) / 1e3;
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

    // Observing runs take the per-burst path: every burst must emit its
    // bus span and metrics sample at the right tick.
    if (metrics_.enabled() || !chTrace_.empty()) {
        Tick done = issue;
        for (Addr a = first; a <= last; a += cfg_.burstBytes) {
            done = std::max(done, access(a, write, issue).completeTick);
        }
        return done;
    }

    // Batched fast path: the same timing recurrence as access() —
    // byte-identical bank/bus state, counters, and completion ticks
    // (proven by the equivalence tests in test_sim_speed) — with the
    // per-burst observability hooks and stat writes hoisted out. The
    // model is schedule-synchronous, so an idle channel "skips to its
    // next busy tick" through the max() against the issue tick rather
    // than by draining filler events.
    std::uint64_t bursts = 0;
    std::uint64_t hits = 0;
    Tick done = issue;
    for (Addr a = first; a <= last; a += cfg_.burstBytes) {
        unsigned ch_idx, bank_idx;
        Addr row;
        decode(a, ch_idx, bank_idx, row);
        Channel &ch = channels_[ch_idx];
        Bank &bank = ch.banks[bank_idx];

        Tick start = std::max(issue, bank.readyAt);
        const bool row_hit = (bank.openRow == row);
        Tick access_lat = tCAS_;
        if (!row_hit) {
            access_lat +=
                (bank.openRow == kBadAddr) ? tRCD_ : (tRP_ + tRCD_);
            bank.openRow = row;
        }
        Tick data_start = std::max(start + access_lat, ch.busFreeAt);
        Tick data_end = data_start + tBURST_;
        ch.busFreeAt = data_end;
        bank.readyAt = row_hit ? start + tBURST_ : start + access_lat;
        const Tick complete = data_end + tCtrl_;

        // Kept per burst (not batched): double accumulation order
        // affects rounding, and byte-identity with access() matters
        // more than the last few percent here.
        latencySumNs_ += static_cast<double>(complete - issue) / 1e3;
        chBytes_[ch_idx] += cfg_.burstBytes;
        ++bursts;
        if (row_hit) {
            ++hits;
        }
        done = std::max(done, complete);
    }

    accesses_ += bursts;
    cumAccesses_ += bursts;
    rowHits_ += hits;
    cumRowHits_ += hits;
    const auto d_bursts = static_cast<double>(bursts);
    const auto d_hits = static_cast<double>(hits);
    if (write) {
        bytesWritten_ += bursts * cfg_.burstBytes;
        statWrites_ += d_bursts;
    } else {
        bytesRead_ += bursts * cfg_.burstBytes;
        statReads_ += d_bursts;
    }
    statRowHits_ += d_hits;
    statRowMisses_ += d_bursts - d_hits;
    return done;
}

void
Dram::resetStats()
{
    bytesRead_ = 0;
    bytesWritten_ = 0;
    accesses_ = 0;
    rowHits_ = 0;
    latencySumNs_ = 0;
    statReads_.reset();
    statWrites_.reset();
    statRowHits_.reset();
    statRowMisses_.reset();
}

double
Dram::utilization(Tick window_start, Tick window_end) const
{
    if (window_end <= window_start) {
        return 0;
    }
    double secs = ticksToSeconds(window_end - window_start);
    double bytes =
        static_cast<double>(bytesRead_) + static_cast<double>(bytesWritten_);
    return (bytes / secs) / cfg_.peakBandwidth();
}

double
Dram::avgLatencyNs() const
{
    return accesses_ ? latencySumNs_ / static_cast<double>(accesses_) : 0;
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
