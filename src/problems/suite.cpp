#include "problems/suite.hpp"

#include <cctype>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "problems/flp.hpp"
#include "problems/gcp.hpp"
#include "problems/kpp.hpp"

namespace chocoq::problems
{

namespace
{

struct ScaleSpec
{
    const char *name;
    const char *config;
    int a, b, c; // family-specific sizes
};

const ScaleSpec &
specOf(Scale s)
{
    // FLP: a = facilities, b = demands. GCP: a = V, b = E, c = K.
    // KPP: a = V, b = E, c = B.
    static const ScaleSpec specs[] = {
        {"F1", "2F-1D", 2, 1, 0},
        {"F2", "3F-2D", 3, 2, 0},
        {"F3", "3F-3D", 3, 3, 0},
        {"F4", "4F-3D", 4, 3, 0},
        {"G1", "3V-1E-3C", 3, 1, 3},
        {"G2", "3V-2E-3C", 3, 2, 3},
        {"G3", "4V-2E-3C", 4, 2, 3},
        {"G4", "4V-3E-3C", 4, 3, 3},
        {"K1", "4V-3E-2B", 4, 3, 2},
        {"K2", "6V-4E-2B", 6, 4, 2},
        {"K3", "6V-6E-3B", 6, 6, 3},
        {"K4", "8V-8E-2B", 8, 8, 2},
    };
    return specs[static_cast<int>(s)];
}

std::uint64_t
seedOf(Scale s, unsigned index)
{
    return 0xC0C0ull * 1000003ull + static_cast<std::uint64_t>(s) * 7919ull
           + index;
}

} // namespace

std::vector<Scale>
allScales()
{
    return {Scale::F1, Scale::F2, Scale::F3, Scale::F4,
            Scale::G1, Scale::G2, Scale::G3, Scale::G4,
            Scale::K1, Scale::K2, Scale::K3, Scale::K4};
}

std::string
scaleName(Scale s)
{
    return specOf(s).name;
}

std::optional<Scale>
scaleByName(const std::string &name)
{
    if (name.size() == 2)
        for (Scale s : allScales()) {
            const char *sn = specOf(s).name;
            if (std::toupper(static_cast<unsigned char>(name[0])) == sn[0]
                && name[1] == sn[1])
                return s;
        }
    return std::nullopt;
}

std::string
scaleConfig(Scale s)
{
    return specOf(s).config;
}

int
scaleNumVars(Scale s)
{
    const auto &spec = specOf(s);
    switch (specOf(s).name[0]) {
      case 'F':
        return spec.a + 2 * spec.a * spec.b;
      case 'G':
        return (spec.a + spec.b) * spec.c;
      default:
        return spec.a * spec.c;
    }
}

int
scaleNumConstraints(Scale s)
{
    const auto &spec = specOf(s);
    switch (specOf(s).name[0]) {
      case 'F':
        return spec.b + spec.a * spec.b;
      case 'G':
        return spec.a + spec.b * spec.c;
      default:
        // KPP: one-hot rows plus per-block balance rows.
        return spec.a + spec.c;
    }
}

model::Problem
makeCase(Scale s, unsigned index)
{
    const auto &spec = specOf(s);
    Rng rng(seedOf(s, index));
    switch (spec.name[0]) {
      case 'F': {
        FlpConfig cfg;
        cfg.facilities = spec.a;
        cfg.demands = spec.b;
        auto p = makeFlp(cfg, rng);
        p.setName(std::string(spec.name) + ":" + spec.config + "#"
                  + std::to_string(index));
        return p;
      }
      case 'G': {
        GcpConfig cfg;
        cfg.vertices = spec.a;
        cfg.edgeCount = spec.b;
        cfg.colors = spec.c;
        auto p = makeGcp(cfg, rng);
        p.setName(std::string(spec.name) + ":" + spec.config + "#"
                  + std::to_string(index));
        return p;
      }
      default: {
        KppConfig cfg;
        cfg.vertices = spec.a;
        cfg.edgeCount = spec.b;
        cfg.blocks = spec.c;
        cfg.balanced = true;
        auto p = makeKpp(cfg, rng);
        p.setName(std::string(spec.name) + ":" + spec.config + "#"
                  + std::to_string(index));
        return p;
      }
    }
}

} // namespace chocoq::problems
