#include "device/device.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace chocoq::device
{

DeviceModel
fez()
{
    DeviceModel d;
    d.name = "Fez";
    d.err1q = 3e-4;
    d.err2qNative = 0.003; // CZ fidelity 99.7%
    d.czFactor = 1.0;
    d.readoutErr = 0.01;
    d.t1q = 32e-9;
    d.t2q = 68e-9;
    d.tReadout = 2e-6;
    d.tShotOverhead = 15e-6;
    return d;
}

DeviceModel
osaka()
{
    DeviceModel d;
    d.name = "Osaka";
    d.err1q = 5e-4;
    d.err2qNative = 0.007; // ECR fidelity 99.3%
    d.czFactor = 3.0;      // CZ = 3 single-direction ECR
    d.readoutErr = 0.02;
    d.t1q = 35e-9;
    d.t2q = 533e-9;
    d.tReadout = 4e-6;
    d.tShotOverhead = 80e-6;
    return d;
}

DeviceModel
sherbrooke()
{
    DeviceModel d = osaka();
    d.name = "Sherbrooke";
    d.err2qNative = 0.007;
    d.readoutErr = 0.015;
    d.tShotOverhead = 70e-6;
    return d;
}

std::vector<DeviceModel>
allDevices()
{
    return {fez(), osaka(), sherbrooke()};
}

DeviceModel
deviceByName(const std::string &name)
{
    std::string key = name;
    std::transform(key.begin(), key.end(), key.begin(),
                   [](unsigned char ch) { return std::tolower(ch); });
    if (key == "fez")
        return fez();
    if (key == "osaka")
        return osaka();
    if (key == "sherbrooke")
        return sherbrooke();
    CHOCOQ_FATAL("unknown device '" << name
                 << "' (expected fez, osaka, or sherbrooke)");
}

sim::NoiseModel
noiseOf(const DeviceModel &dev)
{
    sim::NoiseModel noise;
    noise.p1q = dev.err1q;
    // A logical CX/CZ costs czFactor native gates on ECR devices.
    noise.p2q = dev.err2qNative * dev.czFactor;
    noise.readout = dev.readoutErr;
    return noise;
}

LatencyEstimate
estimateLatency(const DeviceModel &dev, int basis_depth, int iterations,
                int circuits_per_iteration, int shots,
                double compile_seconds, double classical_seconds)
{
    LatencyEstimate out;
    out.compileSeconds = compile_seconds;
    out.classicalSeconds = classical_seconds;
    // Circuit wall time per shot: depth is dominated by two-qubit layers
    // (each logical CX costs czFactor native gates back-to-back).
    const double circuit_time =
        static_cast<double>(basis_depth) * dev.t2q * dev.czFactor * 0.5
        + dev.tReadout + dev.tShotOverhead;
    out.quantumSeconds = static_cast<double>(iterations)
                         * static_cast<double>(circuits_per_iteration)
                         * static_cast<double>(shots) * circuit_time;
    return out;
}

} // namespace chocoq::device
