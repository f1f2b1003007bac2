/**
 * @file
 * IBM-device models (Section V-A/V-C) and the end-to-end latency model.
 *
 * The paper evaluates on three IBMQ systems: Fez (159-qubit Heron r2,
 * native CZ at 99.7% fidelity) and Osaka/Sherbrooke (127-qubit Eagle r3,
 * single-direction ECR at 99.3%; a CZ costs three ECR gates). Since this
 * repository replaces cloud hardware with simulation, each device is
 * reduced to the parameters that drive the paper's hardware results:
 * gate error rates (-> noise trajectories), gate/readout/shot timings
 * (-> latency estimates), and how many native two-qubit gates one CZ
 * costs.
 */

#ifndef CHOCOQ_DEVICE_DEVICE_HPP
#define CHOCOQ_DEVICE_DEVICE_HPP

#include <string>
#include <vector>

#include "sim/executor.hpp"

namespace chocoq::device
{

/** Calibration summary of one quantum device. */
struct DeviceModel
{
    std::string name;
    /** Single-qubit gate error probability. */
    double err1q = 0.0;
    /** Native two-qubit gate error probability. */
    double err2qNative = 0.0;
    /** Native 2q gates needed per CZ/CX (3 on single-direction ECR). */
    double czFactor = 1.0;
    /** Per-bit readout error probability. */
    double readoutErr = 0.0;
    /** Single-qubit gate duration (seconds). */
    double t1q = 0.0;
    /** Native two-qubit gate duration (seconds). */
    double t2q = 0.0;
    /** Readout duration (seconds). */
    double tReadout = 0.0;
    /** Fixed per-shot overhead: reset, delays, control-system latency. */
    double tShotOverhead = 0.0;
};

/** IBM Fez: Heron r2, QAOA-friendly native CZ (99.7%). */
DeviceModel fez();

/** IBM Osaka: Eagle r3, single-direction ECR (99.3%). */
DeviceModel osaka();

/** IBM Sherbrooke: Eagle r3, single-direction ECR (99.3%). */
DeviceModel sherbrooke();

/** All three platforms in the paper's order. */
std::vector<DeviceModel> allDevices();

/** Look up by lower-case name. */
DeviceModel deviceByName(const std::string &name);

/** Trajectory-noise parameters implied by the calibration. */
sim::NoiseModel noiseOf(const DeviceModel &dev);

/** End-to-end latency estimate split like Fig. 11(b). */
struct LatencyEstimate
{
    double compileSeconds = 0.0;
    double quantumSeconds = 0.0;
    double classicalSeconds = 0.0;

    double
    total() const
    {
        return compileSeconds + quantumSeconds + classicalSeconds;
    }
};

/**
 * Estimate the end-to-end latency of an iterative run on a device.
 *
 * @param dev Device model.
 * @param basis_depth Transpiled circuit depth (basic gates).
 * @param iterations Optimizer iterations.
 * @param circuits_per_iteration Circuit instances evaluated per iteration.
 * @param shots Shots per circuit execution.
 * @param compile_seconds Measured compilation time (classical).
 * @param classical_seconds Measured parameter-update time (classical).
 */
LatencyEstimate estimateLatency(const DeviceModel &dev, int basis_depth,
                                int iterations, int circuits_per_iteration,
                                int shots, double compile_seconds,
                                double classical_seconds);

} // namespace chocoq::device

#endif // CHOCOQ_DEVICE_DEVICE_HPP
