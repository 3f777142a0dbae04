#include "workloads/harness.hh"

#include <cmath>

#include "cereal/area_power.hh"
#include "heap/walker.hh"
#include "sim/logging.hh"
#include "trace/trace.hh"

namespace cereal {
namespace workloads {

SdMeasurement
measureSoftware(Serializer &ser, Heap &src, Addr root,
                const CoreConfig &core_cfg, bool verify)
{
    SdMeasurement out;
    out.serializer = ser.name();

    // --- serialize ------------------------------------------------------
    std::vector<std::uint8_t> stream;
    {
        EventQueue eq;
        Dram dram("dram.ser", eq);
        CoreModel core(dram, core_cfg);
        auto em = trace::current().sub((ser.name() + ".ser").c_str());
        core.setTrace(em);
        dram.setTrace(em.sub("dram"));
        stream = ser.serialize(src, root, &core);
        auto st = core.finish();
        out.serSeconds = st.seconds;
        out.serBandwidth = st.bandwidthUtil;
        out.serIpc = st.ipc;
        out.serLlcMissRate = st.llcMissRate;
        out.serEnergyJ = AreaPowerModel::softwareEnergyJ(st.seconds);
    }
    out.streamBytes = stream.size();

    // --- deserialize ----------------------------------------------------
    {
        EventQueue eq;
        Dram dram("dram.deser", eq);
        CoreModel core(dram, core_cfg);
        auto em = trace::current().sub((ser.name() + ".deser").c_str());
        core.setTrace(em);
        dram.setTrace(em.sub("dram"));
        Heap dst(src.registry(), 0x9'0000'0000ULL);
        Addr nr = ser.deserialize(stream, dst, &core);
        auto st = core.finish();
        out.deserSeconds = st.seconds;
        out.deserBandwidth = st.bandwidthUtil;
        out.deserIpc = st.ipc;
        out.deserLlcMissRate = st.llcMissRate;
        out.deserEnergyJ = AreaPowerModel::softwareEnergyJ(st.seconds);
        if (verify) {
            std::string why;
            panic_if(!graphEquals(src, root, dst, nr, &why, false,
                                  &out.objects),
                     "%s round trip broken: %s", ser.name().c_str(),
                     why.c_str());
        } else {
            out.objects = GraphWalker(src).stats(root).objectCount;
        }
    }
    return out;
}

SdMeasurement
measureCereal(Heap &src, Addr root, const AccelConfig &accel_cfg,
              const CerealOptions &opts, bool verify)
{
    SdMeasurement out;
    out.serializer = "cereal";

    AreaPowerModel power(accel_cfg);

    CerealStream stream;
    {
        EventQueue eq;
        Dram dram("dram.ser", eq);
        CerealContext ctx(dram, accel_cfg, opts);
        dram.setTrace(trace::current().sub("cereal.ser_dram"));
        ctx.registerAll(src.registry());
        // writeObject's steps without its encoded copy of the stream.
        stream = ctx.serializer().serializeToStream(src, root);
        const auto t = ctx.device().serialize(src, root, 0);
        out.serSeconds = t.latencySeconds;
        out.serBandwidth = dram.utilization(t.start, t.done);
        out.serEnergyJ = power.serializeEnergyJ(
            ticksToSeconds(ctx.device().suBusyTicks()));
    }
    out.streamBytes = stream.serializedBytes();
    out.objects = stream.objectCount;

    {
        EventQueue eq;
        Dram dram("dram.deser", eq);
        CerealContext ctx(dram, accel_cfg, opts);
        dram.setTrace(trace::current().sub("cereal.deser_dram"));
        ctx.registerAll(src.registry());
        Heap dst(src.registry(), 0x9'0000'0000ULL);
        Addr nr = ctx.serializer().deserializeStream(stream, dst);
        auto t = ctx.device().deserialize(stream, nr, 0);
        out.deserSeconds = t.latencySeconds;
        out.deserBandwidth = dram.utilization(t.start, t.done);
        out.deserEnergyJ = power.deserializeEnergyJ(
            ticksToSeconds(ctx.device().duBusyTicks()));
        if (verify) {
            std::string why;
            panic_if(!graphEquals(src, root, dst, nr, &why),
                     "cereal round trip broken: %s", why.c_str());
        }
    }
    return out;
}

void
SdMeasurement::writeJson(json::Writer &w, const std::string &key) const
{
    w.key(key);
    w.beginObject();
    w.kv("serializer", serializer);
    w.kv("objects", objects);
    w.kv("stream_bytes", streamBytes);
    w.kv("ser_seconds", serSeconds);
    w.kv("deser_seconds", deserSeconds);
    w.kv("ser_bandwidth", serBandwidth);
    w.kv("deser_bandwidth", deserBandwidth);
    w.kv("ser_ipc", serIpc);
    w.kv("deser_ipc", deserIpc);
    w.kv("ser_llc_miss_rate", serLlcMissRate);
    w.kv("deser_llc_miss_rate", deserLlcMissRate);
    w.kv("ser_energy_j", serEnergyJ);
    w.kv("deser_energy_j", deserEnergyJ);
    w.endObject();
}

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty()) {
        return 0;
    }
    double log_sum = 0;
    for (double x : xs) {
        log_sum += std::log(x);
    }
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

} // namespace workloads
} // namespace cereal
