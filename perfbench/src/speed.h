/**
 * @file
 * Host-speed probe. The machines this benchmark runs on are shared,
 * and their speed drifts by tens of percent over minutes with the
 * other tenants' load, while it stays steadier within a few seconds.
 * A run therefore times a fixed probe kernel now and then, while the
 * program under test is idle, and reports its host-time metrics at a
 * fixed reference speed: wall time scaled by the reference probe
 * time over the run's median probe time.
 */
#ifndef PERFBENCH_SPEED_H
#define PERFBENCH_SPEED_H

#include <vector>

namespace pb {

/**
 * Probe time, ms, that defines the reference speed: about what the
 * probe took on the reference machine of README.md. At this speed a
 * host-time metric reads its wall time.
 */
constexpr double kReferenceProbeMs = 40.0;

/** The probe times of one run. */
class SpeedProbe
{
  public:
    /**
     * Time the probe kernel a few times. Call it only where the
     * benchmark drives no program thread, so that nothing but the
     * host's own load competes with it.
     */
    void sample();

    /** False once the kernel computed a wrong answer. */
    bool ok() const { return ok_; }

    /** Median probe time of the run, ms (0 before any sample). */
    double median_ms() const;

    /**
     * Factor that scales this run's wall times to reference speed:
     * kReferenceProbeMs / median_ms(); 1 before any sample.
     */
    double factor() const;

  private:
    std::vector<double> ms_;
    bool ok_ = true;
};

} // namespace pb

#endif // PERFBENCH_SPEED_H
