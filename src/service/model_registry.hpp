#ifndef IMS_SERVICE_MODEL_REGISTRY_HPP
#define IMS_SERVICE_MODEL_REGISTRY_HPP

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "machine/machine_model.hpp"
#include "support/hash.hpp"

namespace ims::service {

/** One registered machine: the model plus its canonical description. */
struct RegisteredModel
{
    machine::MachineModel model;
    /**
     * Canonical machine_io text (printMachine of the parsed model) — the
     * second component of the content-addressed cache key, computed once
     * at registration so request handling never re-prints the model.
     */
    std::string canonicalText;
    /** canonicalText's share of every cache-key digest, precomputed. */
    support::Fnv1aText canonicalTextHash;
};

/**
 * Thread-safe registry of named MachineModels for the schedule service.
 * The built-in models (cydra5, clean64, wide-vliw, scalar-toy) are
 * pre-registered under their CLI names; additional models arrive as
 * machine_io text (registerText) or as constructed models (registerModel).
 *
 * Lookups return shared_ptr<const RegisteredModel>, so a model stays
 * alive for requests already holding it even if re-registered
 * concurrently (re-registering a name atomically replaces the entry —
 * subsequent requests key against the new canonical text, so stale cache
 * entries for the old model can never be returned for the new one).
 */
class ModelRegistry
{
  public:
    /** Registry pre-populated with the built-in machines. */
    ModelRegistry();

    /** Register (or replace) a model under `name`. */
    void registerModel(const std::string& name, machine::MachineModel model);

    /**
     * Parse machine_io text and register it under `name`.
     * @throws support::Error on malformed machine text.
     */
    void registerText(const std::string& name, const std::string& text);

    /** Model by name, or nullptr when unknown. */
    std::shared_ptr<const RegisteredModel>
    lookup(const std::string& name) const;

    /** Registered names, sorted. */
    std::vector<std::string> names() const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::shared_ptr<const RegisteredModel>> models_;
};

} // namespace ims::service

#endif // IMS_SERVICE_MODEL_REGISTRY_HPP
