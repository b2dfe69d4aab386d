"""Regenerate the bundled mini-corpus and scripted replay fixtures.

Run from the repository root:

    python3 tools/make_replay_fixtures.py

Rewrites src/ruleweave/data/corpus/*.jsonl and src/ruleweave/data/replay/*.json.
Every instance carries a hand-written extraction plan (entity spans, assertion
verdicts with justifications, a short rationale for the chain-of-thought
baseline). After writing, the script replays the whole corpus under all six
conditions and fails loudly if any prediction drifts from the gold label or
any span is not a verbatim excerpt of its text.

The ablation replay is the hearsay replay with the final-answer scripts of
three designated instances (t02, t05, t08) flipped, so that runs with and
without the symbolic reasoner disagree on exactly those three.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from ruleweave.backends import ScriptedBackend
from ruleweave.extraction import askable_specs, parse_entity_response
from ruleweave.pipeline import ALL_CONDITIONS, OUTCOME_OK, evaluate_instance
from ruleweave.tasklib import builtin_task

DATA = REPO / "src" / "ruleweave" / "data"
ABLATION_FLIPS = ("t02", "t05", "t08")

# Each test instance: (id, label, text, entities, assertions, reasoning).
# entities: name -> (verbatim span, explanation), or None when not identifiable.
# assertions: name -> (holds, justification) for every spec that could be asked.

HEARSAY_TESTS = [
    (
        "t01",
        "Yes",
        "At trial for a warehouse fire, an investigator testified that a bystander "
        "told her the sprinklers never came on. The statement was offered to "
        "establish that the sprinkler system failed.",
        {
            "Statement": (
                "a bystander told her the sprinklers never came on",
                "a remark reported from outside the courtroom",
            ),
            "Assertion": (
                "the sprinklers never came on",
                "the factual content of the bystander's remark",
            ),
            "LegalIssue": (
                "that the sprinkler system failed",
                "the disputed point the statement is offered on",
            ),
        },
        {
            "IsOutOfCourt": (True, "the bystander spoke at the fire scene, not in any proceeding"),
            "IsInCourt": (False, "nothing places the remark inside a courtroom"),
            "HasAssertion": (True, "the remark asserts that the sprinklers never came on"),
            "IntroducedForLegalIssue": (True, "it is offered on whether the sprinkler system failed"),
            "ProvesTruthOfAssertion": (True, "the proponent offers it to establish exactly what it asserts"),
        },
        "The bystander's remark was made out of court, asserts that the sprinklers "
        "never came on, and is offered to prove that very fact.",
    ),
    (
        "t02",
        "No",
        "A nurse testified that the on-call doctor told her the patient was stable. "
        "The plaintiff offered the statement only to show why the nurse delayed the "
        "transfer, not to prove the patient's condition.",
        {
            "Statement": (
                "the on-call doctor told her the patient was stable",
                "a remark reported from the hospital floor",
            ),
            "Assertion": ("the patient was stable", "the content of the doctor's remark"),
            "LegalIssue": (
                "why the nurse delayed the transfer",
                "the purpose the plaintiff offers the remark for",
            ),
        },
        {
            "IsOutOfCourt": (True, "the doctor spoke on the ward, outside any proceeding"),
            "IsInCourt": (False, "a bedside conversation is not testimony"),
            "HasAssertion": (True, "the remark asserts the patient's stability"),
            "IntroducedForLegalIssue": (True, "it is offered on the delayed-transfer issue"),
            "ProvesTruthOfAssertion": (
                False,
                "it is offered for its effect on the nurse, not for the patient's actual condition",
            ),
        },
        "The doctor's remark is out of court and assertive, but it is offered to "
        "explain the nurse's conduct rather than to prove the patient was stable.",
    ),
    (
        "t03",
        "Yes",
        "In a contract dispute, the buyer's assistant testified that a supplier said "
        "during a phone call that the shipment had left the dock. The buyer offered "
        "this to prove the shipment was actually sent.",
        {
            "Statement": (
                "a supplier said during a phone call that the shipment had left the dock",
                "a remark made on a phone call, outside the proceeding",
            ),
            "Assertion": ("the shipment had left the dock", "what the supplier claimed"),
            "LegalIssue": ("the shipment was actually sent", "the disputed shipping question"),
        },
        {
            "IsOutOfCourt": (True, "the supplier spoke on a phone call, not in the proceeding"),
            "IsInCourt": (False, "a phone call is not testimony"),
            "HasAssertion": (True, "it asserts the shipment left the dock"),
            "IntroducedForLegalIssue": (True, "offered on whether the shipment was sent"),
            "ProvesTruthOfAssertion": (True, "offered to prove the shipment really left"),
        },
        "The supplier's phone remark is an out-of-court assertion offered to prove "
        "the very fact it asserts, that the shipment left.",
    ),
    (
        "t04",
        "No",
        "During cross-examination the defendant himself stated that he had signed "
        "the lease. Opposing counsel now cites that testimony to prove the lease "
        "was signed.",
        {
            "Statement": (
                "the defendant himself stated that he had signed the lease",
                "testimony given on the stand",
            ),
            "Assertion": ("he had signed the lease", "what the testimony asserts"),
            "LegalIssue": ("the lease was signed", "the signing question in dispute"),
        },
        {
            "IsOutOfCourt": (False, "the words were spoken on the stand during cross-examination"),
            "IsInCourt": (True, "cross-examination happens inside this proceeding"),
            "HasAssertion": (True, "the testimony asserts the lease was signed"),
            "IntroducedForLegalIssue": (True, "cited on whether the lease was signed"),
            "ProvesTruthOfAssertion": (True, "cited to prove the signing itself"),
        },
        "The words were given as live testimony in this very proceeding, so the "
        "out-of-court element is missing however they are used.",
    ),
    (
        "t05",
        "Yes",
        "An officer testified that a neighbor told him the blue sedan ran the red "
        "light. The prosecution offered the neighbor's remark to prove the sedan "
        "ran the light.",
        {
            "Statement": (
                "a neighbor told him the blue sedan ran the red light",
                "a remark reported from the street, not the stand",
            ),
            "Assertion": ("the blue sedan ran the red light", "the neighbor's claim"),
            "LegalIssue": ("the sedan ran the light", "the traffic violation in dispute"),
        },
        {
            "IsOutOfCourt": (True, "the neighbor spoke to the officer at the scene"),
            "IsInCourt": (False, "the neighbor never testified"),
            "HasAssertion": (True, "it asserts the sedan ran the red light"),
            "IntroducedForLegalIssue": (True, "offered on whether the sedan ran the light"),
            "ProvesTruthOfAssertion": (True, "offered to prove the violation itself"),
        },
        "An out-of-court accusation is offered to prove the accused conduct itself, "
        "which is the classic pattern.",
    ),
    (
        "t06",
        "No",
        "A foreman testified that the site manager shouted 'put your helmets on' "
        "moments before the inspection. The order was offered to show the manager "
        "was present on the site that morning.",
        {
            "Statement": (
                "the site manager shouted 'put your helmets on'",
                "an utterance reported from the work site",
            ),
            "Assertion": None,
            "LegalIssue": (
                "the manager was present on the site that morning",
                "the presence question the order is offered on",
            ),
        },
        {
            "IsOutOfCourt": (True, "the shout happened on the work site"),
            "IsInCourt": (False, "nothing places the order in a courtroom"),
            "IntroducedForLegalIssue": (True, "offered on the manager's presence"),
            "ProvesTruthOfAssertion": (False, "a bare order asserts no fact that could be proved"),
        },
        "The shouted order is out of court, but an imperative asserts nothing, so "
        "there is no matter whose truth it could be offered to prove.",
    ),
    (
        "t07",
        "Yes",
        "A landlord testified that the building superintendent told him tenants in "
        "4B kept a space heater by the curtains. The landlord offered the super's "
        "statement to prove a heater was kept near the curtains.",
        {
            "Statement": (
                "the building superintendent told him tenants in 4B kept a space heater by the curtains",
                "a remark reported secondhand by the landlord",
            ),
            "Assertion": (
                "tenants in 4B kept a space heater by the curtains",
                "the superintendent's claim",
            ),
            "LegalIssue": (
                "a heater was kept near the curtains",
                "the storage question in dispute",
            ),
        },
        {
            "IsOutOfCourt": (True, "the superintendent spoke to the landlord privately"),
            "IsInCourt": (False, "the superintendent is not the one testifying"),
            "HasAssertion": (True, "it asserts where the heater was kept"),
            "IntroducedForLegalIssue": (True, "offered on the heater-placement issue"),
            "ProvesTruthOfAssertion": (True, "offered to prove the heater really sat by the curtains"),
        },
        "The superintendent's out-of-court claim about the heater is offered to "
        "prove exactly what it claims.",
    ),
    (
        "t08",
        "No",
        "The defense introduced a deposition excerpt in which the witness said the "
        "light was green, offered solely to show the witness has told inconsistent "
        "stories, not to prove the light's colour.",
        {
            "Statement": (
                "the witness said the light was green",
                "a statement from a deposition, outside this trial",
            ),
            "Assertion": ("the light was green", "what the deposition statement asserts"),
            "LegalIssue": (
                "the witness has told inconsistent stories",
                "the credibility point the excerpt is offered on",
            ),
        },
        {
            "IsOutOfCourt": (True, "a deposition is not testimony at this trial"),
            "IsInCourt": (False, "the excerpt comes from outside this proceeding"),
            "HasAssertion": (True, "it asserts the light was green"),
            "IntroducedForLegalIssue": (True, "offered on the witness's consistency"),
            "ProvesTruthOfAssertion": (False, "offered to impeach, not to prove the light's colour"),
        },
        "The deposition statement is out of court, but it is offered to show "
        "inconsistency, not that the light actually was green.",
    ),
    (
        "t09",
        "Yes",
        "In a food poisoning suit, the plaintiff testified that another diner texted "
        "her that the oysters smelled off. The text was offered to prove the oysters "
        "were spoiled.",
        {
            "Statement": (
                "another diner texted her that the oysters smelled off",
                "a text message, made outside court",
            ),
            "Assertion": ("the oysters smelled off", "the diner's claim about the oysters"),
            "LegalIssue": ("the oysters were spoiled", "the spoilage question in dispute"),
        },
        {
            "IsOutOfCourt": (True, "a text message between diners is out of court"),
            "IsInCourt": (False, "the diner did not testify"),
            "HasAssertion": (True, "it asserts the oysters smelled off"),
            "IntroducedForLegalIssue": (True, "offered on whether the oysters were spoiled"),
            "ProvesTruthOfAssertion": (True, "offered to prove the oysters really were off"),
        },
        "The diner's text is an out-of-court assertion offered to prove the "
        "spoilage it describes.",
    ),
    (
        "t10",
        "No",
        "The prosecution relies on the victim's own sworn testimony from earlier in "
        "this trial, where she described the robbery, to prove how the robbery "
        "unfolded.",
        {
            "Statement": (
                "the victim's own sworn testimony from earlier in this trial",
                "testimony given in this very proceeding",
            ),
            "Assertion": ("she described the robbery", "the account the testimony gives"),
            "LegalIssue": ("how the robbery unfolded", "the factual narrative in dispute"),
        },
        {
            "IsOutOfCourt": (False, "the testimony was given at this trial"),
            "IsInCourt": (True, "sworn testimony earlier in this trial is in-court"),
            "HasAssertion": (True, "the testimony recounts the robbery"),
            "IntroducedForLegalIssue": (True, "offered on how the robbery unfolded"),
            "ProvesTruthOfAssertion": (True, "offered for the truth of the account"),
        },
        "The account was sworn testimony within this trial, so whatever it is "
        "offered for, it is not an out-of-court statement.",
    ),
]

HEARSAY_TRAIN = [
    (
        "n01",
        "Yes",
        "A clerk testified that a customer told him the floor by the freezer was "
        "already wet an hour before the fall. The statement was offered to prove "
        "the floor was wet.",
    ),
    (
        "n02",
        "No",
        "The witness's own in-court account of the collision, given from the stand "
        "this morning, is cited to prove how the collision happened.",
    ),
    (
        "n03",
        "Yes",
        "An adjuster testified that the insured's brother said the basement flooded "
        "every spring. The insurer offered the remark to prove the basement flooded "
        "regularly.",
    ),
    (
        "n04",
        "No",
        "Counsel offered a rival vendor's letter claiming the goods were defective, "
        "but only to show the letter reached the buyer before the sale, not that "
        "the goods were defective.",
    ),
    (
        "n05",
        "Yes",
        "A teacher testified that a student said the fire alarm had been taped "
        "over. The statement was offered to prove the alarm was disabled.",
    ),
]

METHOD_TESTS = [
    (
        "t01",
        "Yes",
        "We apply conditional random fields to named entity recognition in clinical "
        "notes, training on the annotated corpus and reporting F1 on held-out notes.",
        {
            "Method": ("conditional random fields", "the sequence model the authors train"),
            "Task": (
                "named entity recognition in clinical notes",
                "the extraction problem being solved",
            ),
        },
        {
            "FunctionalConn": (True, "the model is trained and evaluated on the task"),
            "NoFunctionalConn": (False, "an actual application is described, not ruled out"),
            "ValidRelationType": (True, "the sentence states a method applied to a task"),
        },
        "Conditional random fields are trained and scored on the extraction task, "
        "a genuine application rather than a mention.",
    ),
    (
        "t02",
        "No",
        "Graph attention networks could in principle be used for protein interface "
        "prediction, though we leave any such experiment to future work.",
        {
            "Method": ("Graph attention networks", "the architecture under discussion"),
            "Task": ("protein interface prediction", "the prediction problem named"),
        },
        {
            "FunctionalConn": (False, "no experiment links the model to the task; it is only proposed"),
            "NoFunctionalConn": (True, "the authors say any such experiment is left to future work"),
            "ValidRelationType": (True, "the hypothetical relation is of the method-for-task kind"),
        },
        "The pairing is only proposed for future work, so no functional connection "
        "exists yet between the network and the task.",
    ),
    (
        "t03",
        "Yes",
        "Our pipeline uses byte-pair encoding for subword tokenisation of the "
        "multilingual corpus before any further processing.",
        {
            "Method": ("byte-pair encoding", "the segmentation algorithm in the pipeline"),
            "Task": (
                "subword tokenisation of the multilingual corpus",
                "the preprocessing step it performs",
            ),
        },
        {
            "FunctionalConn": (True, "the pipeline runs the encoding for this step"),
            "NoFunctionalConn": (False, "the method is in active use"),
            "ValidRelationType": (True, "uses X for Y is an application relation"),
        },
        "Byte-pair encoding actually performs the tokenisation inside the "
        "pipeline, which is a direct application.",
    ),
    (
        "t04",
        "No",
        "Beam search is described in the appendix for completeness; our "
        "summarisation experiments decode greedily throughout.",
        {
            "Method": ("Beam search", "the decoding strategy described"),
            "Task": ("summarisation", "the experiments' task"),
        },
        {
            "FunctionalConn": (False, "the experiments decode greedily, never with beam search"),
            "NoFunctionalConn": (True, "the text rules the method out of the experiments"),
            "ValidRelationType": (False, "the only stated relation is non-use"),
        },
        "Beam search is mentioned for completeness while the experiments "
        "explicitly decode greedily, so it is never applied.",
    ),
    (
        "t05",
        "Yes",
        "We fine-tune a pretrained transformer encoder for relation classification "
        "on the chemistry abstracts, which yields the best development scores.",
        {
            "Method": ("pretrained transformer encoder", "the model being fine-tuned"),
            "Task": ("relation classification", "the classification problem"),
        },
        {
            "FunctionalConn": (True, "the encoder is fine-tuned and scored on the task"),
            "NoFunctionalConn": (False, "nothing rules the method out"),
            "ValidRelationType": (True, "fine-tuning for a task is an application"),
        },
        "The encoder is fine-tuned directly for relation classification and "
        "evaluated there, a clear application.",
    ),
    (
        "t06",
        "No",
        "The survey lists spectral clustering among many algorithms, while its "
        "evaluation of community detection uses none of them.",
        {
            "Method": ("spectral clustering", "one algorithm in the survey's list"),
            "Task": ("community detection", "the task the survey evaluates"),
        },
        {
            "FunctionalConn": (False, "the algorithm is merely listed, never run"),
            "NoFunctionalConn": (True, "the evaluation uses none of the listed algorithms"),
            "ValidRelationType": (False, "a survey mention is not an application relation"),
        },
        "Spectral clustering appears only in a list; the survey's evaluation "
        "never runs it on community detection.",
    ),
    (
        "t07",
        "Yes",
        "Monte Carlo dropout is used to estimate predictive uncertainty for the "
        "triage model's risk scores.",
        {
            "Method": ("Monte Carlo dropout", "the stochastic estimation technique"),
            "Task": ("predictive uncertainty", "the quantity being estimated"),
        },
        {
            "FunctionalConn": (True, "the dropout procedure produces the estimates"),
            "NoFunctionalConn": (False, "the technique is in use"),
            "ValidRelationType": (True, "used to estimate is an application relation"),
        },
        "Monte Carlo dropout is the mechanism producing the uncertainty "
        "estimates, so the method is applied to that task.",
    ),
    (
        "t08",
        "No",
        "We use k-means only to initialise the embedding table; the segmentation "
        "task itself is handled by a separate heuristic.",
        {
            "Method": ("k-means", "the clustering algorithm in the pipeline"),
            "Task": ("segmentation", "the task the paper targets"),
        },
        {
            "FunctionalConn": (True, "k-means does run inside the pipeline feeding the system"),
            "NoFunctionalConn": (False, "the method is genuinely executed"),
            "ValidRelationType": (False, "initialising embeddings is not applying k-means to segmentation"),
        },
        "k-means runs, but only to initialise embeddings; segmentation is done "
        "by a heuristic, so the relation is not an application to that task.",
    ),
    (
        "t09",
        "Yes",
        "For the ablation we rank candidate answers with a bi-encoder retriever "
        "over the trivia benchmark, as in the main experiments.",
        {
            "Method": ("bi-encoder retriever", "the retrieval model doing the ranking"),
            "Task": ("rank candidate answers", "the ranking step performed"),
        },
        {
            "FunctionalConn": (True, "the retriever performs the ranking in both settings"),
            "NoFunctionalConn": (False, "the method is used, not withheld"),
            "ValidRelationType": (True, "ranking with the retriever is an application"),
        },
        "The retriever actually performs the answer ranking in the ablation and "
        "the main runs alike.",
    ),
    (
        "t10",
        "No",
        "Although data augmentation is popular elsewhere, our speech recognition "
        "results are reported without any augmentation at all.",
        {
            "Method": ("data augmentation", "the technique being discussed"),
            "Task": ("speech recognition", "the task whose results are reported"),
        },
        {
            "FunctionalConn": (False, "the results explicitly use no augmentation"),
            "NoFunctionalConn": (True, "the text states the results exclude the technique"),
            "ValidRelationType": (False, "the stated relation is absence of use"),
        },
        "Augmentation is noted as popular elsewhere but explicitly absent from "
        "these experiments, so it is not applied here.",
    ),
]

METHOD_TRAIN = [
    (
        "n01",
        "Yes",
        "We use a convolutional network to classify skin lesion images collected "
        "from three clinics.",
    ),
    (
        "n02",
        "No",
        "Dependency parsing is mentioned once in related work; the system itself "
        "performs no syntactic analysis.",
    ),
    (
        "n03",
        "Yes",
        "Latent Dirichlet allocation is applied to the help-desk tickets to "
        "discover recurring topics.",
    ),
    (
        "n04",
        "Yes",
        "The tracker relies on a Kalman filter to smooth the estimated positions "
        "between frames.",
    ),
    (
        "n05",
        "No",
        "While reinforcement learning could automate the scheduling step, the "
        "present system leaves scheduling to a fixed rule table.",
    ),
]

ELIGIBILITY_TESTS = [
    (
        "t01",
        "Yes",
        "Criteria: Patients must be at least 18 years old and have a confirmed "
        "diagnosis of type 2 diabetes. Statement: A 54-year-old patient with "
        "confirmed type 2 diabetes satisfies the age requirement.",
        {
            "Statement": (
                "A 54-year-old patient with confirmed type 2 diabetes satisfies the age requirement.",
                "the claim to be checked against the criteria",
            ),
            "Criteria": (
                "Patients must be at least 18 years old and have a confirmed diagnosis of type 2 diabetes.",
                "the eligibility rules acting as premise",
            ),
        },
        {
            "FollowsFromPremise": (True, "54 exceeds the age floor and the diagnosis matches"),
            "StatementConflictsWithPremise": (False, "nothing in the statement contradicts the criteria"),
        },
        "The patient is over 18 with the required diagnosis, so the statement "
        "follows from the criteria.",
    ),
    (
        "t02",
        "No",
        "Criteria: Participants must have an ECOG performance status of 0 or 1. "
        "Statement: A participant with an ECOG status of 3 meets the performance "
        "requirement.",
        {
            "Statement": (
                "A participant with an ECOG status of 3 meets the performance requirement.",
                "the claim under evaluation",
            ),
            "Criteria": (
                "Participants must have an ECOG performance status of 0 or 1.",
                "the premise limiting performance status",
            ),
        },
        {
            "FollowsFromPremise": (False, "an ECOG of 3 is outside the required 0 to 1"),
            "StatementConflictsWithPremise": (True, "the statement claims eligibility the criteria rule out"),
        },
        "ECOG 3 falls outside the permitted 0 to 1 range, so the claimed "
        "eligibility contradicts the criteria.",
    ),
    (
        "t03",
        "Yes",
        "Criteria: Eligible subjects must weigh more than 50 kg at screening. "
        "Statement: A subject weighing 72 kg at screening meets the weight "
        "threshold.",
        {
            "Statement": (
                "A subject weighing 72 kg at screening meets the weight threshold.",
                "the weight claim to verify",
            ),
            "Criteria": (
                "Eligible subjects must weigh more than 50 kg at screening.",
                "the weight requirement premise",
            ),
        },
        {
            "FollowsFromPremise": (True, "72 kg is above the 50 kg floor"),
            "StatementConflictsWithPremise": (False, "the weight satisfies rather than violates the rule"),
        },
        "72 kg clears the 50 kg minimum, so the statement follows.",
    ),
    (
        "t04",
        "No",
        "Criteria: Patients with prior exposure to any anti-PD-1 therapy are "
        "excluded. Statement: A patient previously treated with an anti-PD-1 "
        "antibody remains eligible for enrolment.",
        {
            "Statement": (
                "A patient previously treated with an anti-PD-1 antibody remains eligible for enrolment.",
                "the eligibility claim",
            ),
            "Criteria": (
                "Patients with prior exposure to any anti-PD-1 therapy are excluded.",
                "the exclusion premise",
            ),
        },
        {
            "FollowsFromPremise": (False, "prior anti-PD-1 exposure triggers the exclusion"),
            "StatementConflictsWithPremise": (True, "the claim of eligibility directly contradicts the exclusion"),
        },
        "The exclusion covers exactly this prior therapy, so claiming the "
        "patient remains eligible contradicts the premise.",
    ),
    (
        "t05",
        "Yes",
        "Criteria: Enrolment requires a baseline haemoglobin of at least 9 g/dL. "
        "Statement: A baseline haemoglobin of 10.2 g/dL satisfies the laboratory "
        "requirement.",
        {
            "Statement": (
                "A baseline haemoglobin of 10.2 g/dL satisfies the laboratory requirement.",
                "the laboratory claim",
            ),
            "Criteria": (
                "Enrolment requires a baseline haemoglobin of at least 9 g/dL.",
                "the laboratory threshold premise",
            ),
        },
        {
            "FollowsFromPremise": (True, "10.2 g/dL meets the 9 g/dL minimum"),
            "StatementConflictsWithPremise": (False, "the value is on the right side of the threshold"),
        },
        "10.2 is at least 9, so the statement follows from the requirement.",
    ),
    (
        "t06",
        "No",
        "Criteria: Women who are pregnant or breastfeeding may not take part. "
        "Statement: A breastfeeding mother may take part in the trial.",
        {
            "Statement": (
                "A breastfeeding mother may take part in the trial.",
                "the participation claim",
            ),
            "Criteria": (
                "Women who are pregnant or breastfeeding may not take part.",
                "the exclusion premise",
            ),
        },
        {
            "FollowsFromPremise": (False, "breastfeeding is listed as disqualifying"),
            "StatementConflictsWithPremise": (True, "the claim asserts the opposite of the exclusion"),
        },
        "Breastfeeding is expressly disqualifying, so saying such a mother may "
        "take part contradicts the criteria.",
    ),
    (
        "t07",
        "Yes",
        "Criteria: Subjects must be able to swallow oral study medication whole. "
        "Statement: A subject who can swallow tablets whole meets the "
        "administration requirement.",
        {
            "Statement": (
                "A subject who can swallow tablets whole meets the administration requirement.",
                "the administration claim",
            ),
            "Criteria": (
                "Subjects must be able to swallow oral study medication whole.",
                "the administration premise",
            ),
        },
        {
            "FollowsFromPremise": (True, "swallowing tablets whole is what the rule demands"),
            "StatementConflictsWithPremise": (False, "the ability matches the requirement"),
        },
        "The stated ability is precisely the required one, so the statement "
        "follows.",
    ),
    (
        "t08",
        "No",
        "Criteria: Any active infection requiring intravenous antibiotics is "
        "disqualifying. Statement: A patient on intravenous antibiotics for an "
        "active infection can still be enrolled.",
        {
            "Statement": (
                "A patient on intravenous antibiotics for an active infection can still be enrolled.",
                "the enrolment claim",
            ),
            "Criteria": (
                "Any active infection requiring intravenous antibiotics is disqualifying.",
                "the infection exclusion premise",
            ),
        },
        {
            "FollowsFromPremise": (False, "the described infection is exactly the disqualifying case"),
            "StatementConflictsWithPremise": (True, "claiming enrolment despite the infection contradicts the rule"),
        },
        "The infection requiring intravenous antibiotics is the disqualifying "
        "case, so the enrolment claim contradicts the premise.",
    ),
    (
        "t09",
        "Yes",
        "Criteria: Participants must have completed primary vaccination at least "
        "14 days before dosing. Statement: A participant vaccinated 30 days before "
        "dosing satisfies the interval requirement.",
        {
            "Statement": (
                "A participant vaccinated 30 days before dosing satisfies the interval requirement.",
                "the interval claim",
            ),
            "Criteria": (
                "Participants must have completed primary vaccination at least 14 days before dosing.",
                "the vaccination interval premise",
            ),
        },
        {
            "FollowsFromPremise": (True, "30 days is at least the required 14"),
            "StatementConflictsWithPremise": (False, "the interval satisfies the premise"),
        },
        "Thirty days exceeds the fourteen-day minimum, so the statement follows.",
    ),
    (
        "t10",
        "No",
        "Criteria: Creatinine clearance below 30 mL/min excludes a patient from "
        "the trial. Statement: A patient with a creatinine clearance of 22 mL/min "
        "is eligible.",
        {
            "Statement": (
                "A patient with a creatinine clearance of 22 mL/min is eligible.",
                "the eligibility claim",
            ),
            "Criteria": (
                "Creatinine clearance below 30 mL/min excludes a patient from the trial.",
                "the renal function premise",
            ),
        },
        {
            "FollowsFromPremise": (False, "22 mL/min is below the 30 mL/min cut-off"),
            "StatementConflictsWithPremise": (True, "the claim of eligibility contradicts the exclusion"),
        },
        "A clearance of 22 is below the 30 cut-off, so claiming eligibility "
        "contradicts the criteria.",
    ),
]

ELIGIBILITY_TRAIN = [
    (
        "n01",
        "Yes",
        "Criteria: Patients must have measurable disease per RECIST 1.1. "
        "Statement: A patient with a measurable 2 cm target lesion meets the "
        "disease requirement.",
    ),
    (
        "n02",
        "No",
        "Criteria: Enrolment is limited to never-smokers. Statement: A patient "
        "with a 20-pack-year history qualifies as a never-smoker.",
    ),
    (
        "n03",
        "Yes",
        "Criteria: Subjects must provide written informed consent before any "
        "study procedure. Statement: A subject who signed the consent form before "
        "screening fulfils the consent requirement.",
    ),
    (
        "n04",
        "No",
        "Criteria: Concurrent enrolment in another interventional trial is "
        "prohibited. Statement: A subject simultaneously enrolled in another "
        "interventional drug trial may join.",
    ),
]

CORPORA = {
    "hearsay": (HEARSAY_TESTS, HEARSAY_TRAIN),
    "method_application": (METHOD_TESTS, METHOD_TRAIN),
    "clinical_eligibility": (ELIGIBILITY_TESTS, ELIGIBILITY_TRAIN),
}


def entity_reply(task, entities):
    records = []
    counter = 0
    for spec in task.entity_specs:
        info = entities.get(spec.name)
        if info is None:
            records.append(
                {"name": spec.name, "found": False, "span": None, "individual": None, "explanation": None}
            )
            continue
        counter += 1
        span, why = info
        records.append(
            {
                "name": spec.name,
                "found": True,
                "span": span,
                "individual": f"e{counter}",
                "explanation": why,
            }
        )
    return json.dumps({"entities": records}, ensure_ascii=False)


def assertion_reply(task, instance_id, entities, assertions, complementary):
    parsed = parse_entity_response(
        json.loads(entity_reply(task, entities)), task, instance_id
    )
    asked = askable_specs(task, parsed, complementary)
    records = []
    for spec in asked:
        holds, why = assertions[spec.name]
        records.append({"name": spec.name, "holds": holds, "justification": why})
    return json.dumps({"assertions": records}, ensure_ascii=False)


def build_task_fixtures(task_id):
    task = builtin_task(task_id)
    tests, train = CORPORA[task_id]
    corpus_lines = []
    replay = []
    for instance_id, label, text, entities, assertions, reasoning in tests:
        for info in entities.values():
            if info is not None and info[0] not in text:
                raise SystemExit(f"{task_id}/{instance_id}: span not in text: {info[0]!r}")
        corpus_lines.append({"id": instance_id, "text": text, "label": label, "split": "test"})
        steps = {
            "entity": entity_reply(task, entities),
            "assertion": assertion_reply(task, instance_id, entities, assertions, False),
            "assertion_comp": assertion_reply(task, instance_id, entities, assertions, True),
            "direct": json.dumps({"answer": label}),
            "direct_comp": json.dumps({"answer": label}),
            "fs": json.dumps({"answer": label}),
            "cot": json.dumps({"reasoning": reasoning, "answer": label}, ensure_ascii=False),
        }
        for step, response in steps.items():
            replay.append({"instance_id": instance_id, "step": step, "response": response})
    for instance_id, label, text in train:
        corpus_lines.append({"id": instance_id, "text": text, "label": label, "split": "train"})
    replay.sort(key=lambda r: (r["instance_id"], r["step"]))
    return corpus_lines, replay


def flip_label(label):
    return "No" if label == "Yes" else "Yes"


def build_ablation_replay(replay, gold_labels):
    flipped = []
    for record in replay:
        if record["instance_id"] in ABLATION_FLIPS and record["step"] in ("direct", "direct_comp"):
            answer = flip_label(gold_labels[record["instance_id"]])
            flipped.append({**record, "response": json.dumps({"answer": answer})})
        else:
            flipped.append(dict(record))
    return flipped


def self_check(task_id, corpus_lines, replay):
    task = builtin_task(task_id)
    backend = ScriptedBackend.from_records(replay)
    train = [(r["text"], r["label"]) for r in corpus_lines if r["split"] == "train"]
    tests = [r for r in corpus_lines if r["split"] == "test"]
    for condition in ALL_CONDITIONS:
        for record in tests:
            trace = evaluate_instance(
                task,
                record["id"],
                record["text"],
                record["label"],
                condition,
                backend,
                exemplars=train,
            )
            if trace.outcome != OUTCOME_OK or trace.prediction != record["label"]:
                raise SystemExit(
                    f"{task_id}/{record['id']}/{condition.value}: expected clean "
                    f"{record['label']}, got {trace.prediction} ({trace.outcome}: {trace.error})"
                )
    print(f"  {task_id}: {len(tests)} test instances clean under all {len(ALL_CONDITIONS)} conditions")


def write_json(path, payload):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"  wrote {path.relative_to(REPO)}")


def write_corpus(path, lines):
    path.parent.mkdir(parents=True, exist_ok=True)
    text = "\n".join(json.dumps(line, ensure_ascii=False) for line in lines) + "\n"
    path.write_text(text, encoding="utf-8")
    print(f"  wrote {path.relative_to(REPO)} ({len(lines)} records)")


def main():
    for task_id in CORPORA:
        corpus_lines, replay = build_task_fixtures(task_id)
        self_check(task_id, corpus_lines, replay)
        write_corpus(DATA / "corpus" / f"{task_id}.jsonl", corpus_lines)
        write_json(DATA / "replay" / f"{task_id}.replay.json", replay)
        if task_id == "hearsay":
            gold = {r["id"]: r["label"] for r in corpus_lines}
            ablation = build_ablation_replay(replay, gold)
            write_json(DATA / "replay" / "hearsay.ablation.replay.json", ablation)


if __name__ == "__main__":
    main()
