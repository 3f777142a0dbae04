#include "metrics/metrics.hh"

#include <utility>

#include "sim/json.hh"
#include "sim/logging.hh"

namespace cereal {
namespace metrics {

namespace {

/**
 * Thread-local ambient recorder: each sweep point runs start-to-finish
 * on one pool thread (the trace/JSON slot argument), so per-thread
 * roots keep concurrent points isolated without locks.
 */
thread_local MetricsRecorder *tls_recorder = nullptr;

} // namespace

const char *
kindName(Kind k)
{
    switch (k) {
      case Kind::Gauge: return "gauge";
      case Kind::Rate: return "rate";
      case Kind::Ratio: return "ratio";
    }
    return "?";
}

// ------------------------------------------------------------- Series

Series::Series(std::string name, std::string help, Kind kind,
               std::size_t max_samples, Tick interval)
    : name_(std::move(name)), help_(std::move(help)), kind_(kind),
      next_(interval), interval_(interval)
{
    panic_if(interval_ == 0, "metrics interval must be >= 1 tick");
    panic_if(max_samples == 0, "metrics ring capacity must be >= 1");
    ring_.resize(max_samples);
}

std::vector<Sample>
Series::samples() const
{
    std::vector<Sample> out;
    out.reserve(count_);
    for (std::size_t i = 0; i < count_; ++i) {
        out.push_back(ring_[(head_ + i) % ring_.size()]);
    }
    return out;
}

Sample
Series::last() const
{
    panic_if(count_ == 0, "Series::last() on empty series '%s'",
             name_.c_str());
    return ring_[(head_ + count_ - 1) % ring_.size()];
}

void
Series::push(Tick at, double v)
{
    if (count_ == ring_.size()) {
        ring_[head_] = {at, v};
        head_ = (head_ + 1) % ring_.size();
        ++dropped_;
    } else {
        ring_[(head_ + count_) % ring_.size()] = {at, v};
        ++count_;
    }
}

void
Series::sampleAt(Tick at)
{
    switch (kind_) {
      case Kind::Gauge:
        push(at, gauge_(at));
        break;
      case Kind::Rate: {
        const double cur = num_();
        const double delta = cur - prevNum_;
        prevNum_ = cur;
        push(at, delta / static_cast<double>(interval_) * scale_);
        break;
      }
      case Kind::Ratio: {
        const double num = num_();
        const double den = den_();
        const double dn = num - prevNum_;
        const double dd = den - prevDen_;
        prevNum_ = num;
        prevDen_ = den;
        push(at, dd != 0 ? dn / dd : 0.0);
        break;
      }
    }
}

// ----------------------------------------------------- MetricsRecorder

MetricsRecorder::MetricsRecorder(Tick interval, std::size_t max_samples)
    : interval_(interval), maxSamples_(max_samples)
{
    panic_if(interval_ == 0, "metrics interval must be >= 1 tick");
    panic_if(maxSamples_ == 0, "metrics ring capacity must be >= 1");
}

std::string
MetricsRecorder::uniquePrefix(const std::string &prefix)
{
    for (auto &[name, uses] : prefixes_) {
        if (name == prefix) {
            ++uses;
            return prefix + "#" + std::to_string(uses - 1);
        }
    }
    prefixes_.push_back({prefix, 1});
    return prefix;
}

std::size_t
MetricsRecorder::addGauge(std::string name, std::string help, GaugeFn fn)
{
    series_.emplace_back(std::move(name), std::move(help), Kind::Gauge,
                         maxSamples_, interval_);
    series_.back().gauge_ = std::move(fn);
    return series_.size() - 1;
}

std::size_t
MetricsRecorder::addRate(std::string name, std::string help, CounterFn fn,
                         double scale)
{
    series_.emplace_back(std::move(name), std::move(help), Kind::Rate,
                         maxSamples_, interval_);
    auto &s = series_.back();
    s.num_ = std::move(fn);
    s.scale_ = scale;
    s.prevNum_ = s.num_();
    return series_.size() - 1;
}

std::size_t
MetricsRecorder::addRatio(std::string name, std::string help,
                          CounterFn num, CounterFn den)
{
    series_.emplace_back(std::move(name), std::move(help), Kind::Ratio,
                         maxSamples_, interval_);
    auto &s = series_.back();
    s.num_ = std::move(num);
    s.den_ = std::move(den);
    s.prevNum_ = s.num_();
    s.prevDen_ = s.den_();
    return series_.size() - 1;
}

void
MetricsRecorder::detach(const std::vector<std::size_t> &ids)
{
    for (std::size_t id : ids) {
        Series &s = series_[id];
        s.live_ = false;
        s.gauge_ = nullptr;
        s.num_ = nullptr;
        s.den_ = nullptr;
    }
}

void
MetricsRecorder::tickSeries(const std::vector<std::size_t> &ids, Tick now)
{
    for (std::size_t id : ids) {
        Series &s = series_[id];
        if (!s.live_ || now < s.next_) {
            continue;
        }
        // Only the last maxSamples_ boundaries of one call survive the
        // ring. The closures read state that cannot move within this
        // call, so skipping the others only moves the counters'
        // baseline, as the first of them would have.
        const Tick crossed = (now - s.next_) / interval_ + 1;
        if (crossed > maxSamples_) {
            const Tick skipped = crossed - maxSamples_;
            if (s.num_) {
                s.prevNum_ = s.num_();
            }
            if (s.den_) {
                s.prevDen_ = s.den_();
            }
            s.dropped_ += skipped;
            s.next_ += skipped * interval_;
        }
        while (now >= s.next_) {
            s.sampleAt(s.next_);
            s.next_ += interval_;
        }
    }
}

void
MetricsRecorder::recordHistogram(const std::string &name,
                                 const std::string &help,
                                 const stats::Distribution &d)
{
    HistogramSnapshot h;
    h.name = name;
    h.help = help;
    h.bounds = stats::logBucketBounds();
    h.counts = d.logBucketCounts();
    h.sum = d.sum();
    h.count = d.count();
    histograms_.push_back(std::move(h));
}

void
MetricsRecorder::writeJson(json::Writer &w) const
{
    w.key("metrics");
    w.beginObject();
    w.kv("interval_ticks", interval_);
    w.key("series");
    w.beginArray();
    for (const auto &s : series_) {
        w.beginObject();
        w.kv("name", s.name());
        w.kv("kind", kindName(s.kind()));
        w.kv("help", s.help());
        w.kv("dropped", s.dropped());
        const auto samples = s.samples();
        w.key("ticks");
        w.beginArray();
        for (const auto &sm : samples) {
            w.value(sm.tick);
        }
        w.endArray();
        w.key("values");
        w.beginArray();
        for (const auto &sm : samples) {
            w.value(sm.value);
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.key("histograms");
    w.beginArray();
    for (const auto &h : histograms_) {
        w.beginObject();
        w.kv("name", h.name);
        w.kv("help", h.help);
        w.kv("sum", h.sum);
        w.kv("count", h.count);
        w.key("bounds");
        w.beginArray();
        for (double b : h.bounds) {
            w.value(b);
        }
        w.endArray();
        w.key("cumulative_counts");
        w.beginArray();
        for (auto c : h.counts) {
            w.value(c);
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

// -------------------------------------------------------------- Group

Group::Group(MetricsRecorder *r, const std::string &prefix) : rec_(r)
{
    if (rec_ != nullptr) {
        prefix_ = rec_->uniquePrefix(prefix);
    }
}

Group::Group(Group &&other) noexcept
    : rec_(other.rec_), prefix_(std::move(other.prefix_)),
      ids_(std::move(other.ids_))
{
    other.rec_ = nullptr;
    other.ids_.clear();
}

Group &
Group::operator=(Group &&other) noexcept
{
    if (this != &other) {
        if (rec_ != nullptr) {
            rec_->detach(ids_);
        }
        rec_ = other.rec_;
        prefix_ = std::move(other.prefix_);
        ids_ = std::move(other.ids_);
        other.rec_ = nullptr;
        other.ids_.clear();
    }
    return *this;
}

Group::~Group()
{
    if (rec_ != nullptr) {
        rec_->detach(ids_);
    }
}

void
Group::gauge(const char *name, const char *help, GaugeFn fn)
{
    if (rec_ == nullptr) {
        return;
    }
    ids_.push_back(
        rec_->addGauge(prefix_ + "." + name, help, std::move(fn)));
}

void
Group::rate(const char *name, const char *help, CounterFn fn, double scale)
{
    if (rec_ == nullptr) {
        return;
    }
    ids_.push_back(
        rec_->addRate(prefix_ + "." + name, help, std::move(fn), scale));
}

void
Group::ratio(const char *name, const char *help, CounterFn num,
             CounterFn den)
{
    if (rec_ == nullptr) {
        return;
    }
    ids_.push_back(rec_->addRatio(prefix_ + "." + name, help,
                                  std::move(num), std::move(den)));
}

void
Group::tickSlow(Tick now)
{
    rec_->tickSeries(ids_, now);
}

// ------------------------------------------------------------ ambient

MetricsRecorder *
current()
{
    return tls_recorder;
}

ScopedMetrics::ScopedMetrics(MetricsRecorder &rec) : prev_(tls_recorder)
{
    tls_recorder = &rec;
}

ScopedMetrics::~ScopedMetrics()
{
    tls_recorder = prev_;
}

} // namespace metrics
} // namespace cereal
