//! **WebDocs** — the scenario's "Web-based word processor" (§II): Bob
//! "creates documents to describe adventures … organizes … documents into
//! folders". The paper's prototype built two Hosts; the scenario names
//! three, so the reproduction completes the set.

use std::sync::Arc;

use ucam_policy::Action;
use ucam_webenv::Method::{Get, Post};
use ucam_webenv::{Method, Request, Response, SimClock, Status, Transport, WebApp};

use crate::shell::Caller::{Pep, Session};
use crate::shell::{AppShell, Call, Route};

/// The online word-processor application.
///
/// Documents live under ids `docs/<folder>/<name>` and are UTF-8 text.
///
/// The class column is who may call a route (DESIGN.md §17).
///
/// | Route | Class | Meaning |
/// |---|---|---|
/// | `POST /docs?folder=f&id=d` (body) | Session | create a document |
/// | `GET /docs/<folder>/<d>` | Pep | read (read-enforced) |
/// | `POST /docs/<folder>/<d>` (body) | Pep | replace content (write-enforced) |
/// | `POST /docs/<folder>/<d>/append?text=` | Pep | append a paragraph (write-enforced) |
/// | `DELETE /docs/<folder>/<d>` | Pep | delete (delete-enforced) |
/// | `GET /folder/<f>` | Pep | list documents (list-enforced on `folder-meta/<f>`) |
/// | `POST /folders?name=f` | Session | create a folder |
pub struct WebDocs {
    shell: AppShell,
}

impl std::fmt::Debug for WebDocs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WebDocs")
            .field("shell", &self.shell)
            .finish()
    }
}

impl WebDocs {
    /// The word processor's own routes, served after the shell's.
    const ROUTES: &'static [Route<Self>] = &[
        (Some(Post), "/folders", Session, Self::create_folder),
        (Some(Post), "/docs", Session, Self::create_doc),
        (None, "/docs/", Pep, Self::doc_route),
        (Some(Get), "/folder/", Pep, Self::list_folder),
    ];

    /// Creates the word processor at `authority`.
    #[must_use]
    pub fn new(authority: &str, clock: SimClock) -> Arc<Self> {
        Arc::new(WebDocs {
            shell: AppShell::new(authority, clock),
        })
    }

    /// Access to the shared shell.
    #[must_use]
    pub fn shell(&self) -> &AppShell {
        &self.shell
    }

    fn create_folder(&self, c: Call<'_>) -> Response {
        let Some(name) = c.req.param("name") else {
            return Response::bad_request("name required");
        };
        self.shell
            .create(&c, format!("folder-meta/{name}"), "folder", Vec::new())
    }

    fn create_doc(&self, c: Call<'_>) -> Response {
        let (Some(folder), Some(name)) = (c.req.param("folder"), c.req.param("id")) else {
            return Response::bad_request("folder and id required");
        };
        let data = c.req.body.clone().into_bytes();
        self.shell
            .create(&c, format!("docs/{folder}/{name}"), "document", data)
    }

    fn doc_route(&self, c: Call<'_>) -> Response {
        let req = c.req;
        let rest = req.url.path().trim_start_matches("/docs/");
        let segments: Vec<&str> = rest.split('/').filter(|s| !s.is_empty()).collect();
        let (folder, name, op) = match segments.as_slice() {
            [folder, name] => (*folder, *name, None),
            [folder, name, op] => (*folder, *name, Some(*op)),
            _ => return Response::bad_request("expected /docs/<folder>/<doc>[/append]"),
        };
        let id = format!("docs/{folder}/{name}");
        let action = match (req.method, op) {
            (Method::Get, None) => Action::Read,
            (Method::Delete, None) => Action::Delete,
            _ => Action::Write,
        };
        if let Err(resp) = self.shell.enforce_web(&c, &id, &action) {
            return resp;
        }
        match (req.method, op) {
            (Method::Get, None) => match self.shell.core.resource_text(&id) {
                Some(text) => Response::ok().with_body(text),
                None => Response::not_found(&id),
            },
            (Method::Delete, None) => match self.shell.core.delete_resource(&id) {
                Ok(_) => Response::with_status(Status::NoContent),
                Err(e) => Response::not_found(&e.to_string()),
            },
            (Method::Post, None) => {
                match self
                    .shell
                    .core
                    .update_resource(&id, req.body.clone().into_bytes())
                {
                    Ok(()) => Response::ok().with_body("saved"),
                    Err(e) => Response::not_found(&e.to_string()),
                }
            }
            (Method::Post, Some("append")) => {
                let Some(text) = req.param("text") else {
                    return Response::bad_request("text required");
                };
                let Some(existing) = self.shell.core.resource(&id) else {
                    return Response::not_found(&id);
                };
                let mut content = existing.data;
                content.extend_from_slice(b"\n");
                content.extend_from_slice(text.as_bytes());
                match self.shell.core.update_resource(&id, content) {
                    Ok(()) => Response::ok().with_body("appended"),
                    Err(e) => Response::not_found(&e.to_string()),
                }
            }
            _ => Response::bad_request("unsupported document operation"),
        }
    }

    fn list_folder(&self, c: Call<'_>) -> Response {
        let folder = c.req.url.path().trim_start_matches("/folder/");
        let meta_id = format!("folder-meta/{folder}");
        if let Err(resp) = self.shell.enforce_web(&c, &meta_id, &Action::List) {
            return resp;
        }
        let docs = self.shell.core.ids_with_prefix(&format!("docs/{folder}/"));
        Response::ok().with_body(docs.join("\n"))
    }
}

impl WebApp for WebDocs {
    fn authority(&self) -> &str {
        self.shell.core.authority()
    }

    fn handle(&self, net: &dyn Transport, req: &Request) -> Response {
        self.shell.serve(self, Self::ROUTES, net, req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucam_webenv::identity::IdentityProvider;
    use ucam_webenv::SimNet;

    fn setup() -> (SimNet, Arc<WebDocs>, String) {
        let net = SimNet::new();
        let docs = WebDocs::new("webdocs.example", net.clock().clone());
        let idp = IdentityProvider::new("idp.example", net.clock().clone());
        idp.register_user("bob", "pw");
        docs.shell().set_identity_verifier(idp.verifier());
        net.register(docs.clone());
        let token = idp.login("bob", "pw").unwrap().token;
        (net, docs, token)
    }

    #[test]
    fn create_read_append_delete() {
        let (net, _, token) = setup();
        let create = net.dispatch(
            "browser:bob",
            Request::new(Method::Post, "https://webdocs.example/docs")
                .with_param("folder", "trips")
                .with_param("id", "rome")
                .with_param("subject_token", &token)
                .with_body("Day 1: arrived."),
        );
        assert_eq!(create.status, Status::Created);

        net.dispatch(
            "browser:bob",
            Request::new(
                Method::Post,
                "https://webdocs.example/docs/trips/rome/append",
            )
            .with_param("text", "Day 2: colosseum.")
            .with_param("subject_token", &token),
        );

        let read = net.dispatch(
            "browser:bob",
            Request::new(Method::Get, "https://webdocs.example/docs/trips/rome")
                .with_param("subject_token", &token),
        );
        assert_eq!(read.body, "Day 1: arrived.\nDay 2: colosseum.");

        let del = net.dispatch(
            "browser:bob",
            Request::new(Method::Delete, "https://webdocs.example/docs/trips/rome")
                .with_param("subject_token", &token),
        );
        assert_eq!(del.status, Status::NoContent);
    }

    #[test]
    fn replace_content() {
        let (net, _, token) = setup();
        net.dispatch(
            "browser:bob",
            Request::new(Method::Post, "https://webdocs.example/docs")
                .with_param("folder", "f")
                .with_param("id", "d")
                .with_param("subject_token", &token)
                .with_body("v1"),
        );
        let save = net.dispatch(
            "browser:bob",
            Request::new(Method::Post, "https://webdocs.example/docs/f/d")
                .with_param("subject_token", &token)
                .with_body("v2"),
        );
        assert_eq!(save.status, Status::Ok);
        let read = net.dispatch(
            "browser:bob",
            Request::new(Method::Get, "https://webdocs.example/docs/f/d")
                .with_param("subject_token", &token),
        );
        assert_eq!(read.body, "v2");
    }

    #[test]
    fn folders_and_listing() {
        let (net, _, token) = setup();
        net.dispatch(
            "browser:bob",
            Request::new(Method::Post, "https://webdocs.example/folders")
                .with_param("name", "trips")
                .with_param("subject_token", &token),
        );
        for doc in ["rome", "oslo"] {
            net.dispatch(
                "browser:bob",
                Request::new(Method::Post, "https://webdocs.example/docs")
                    .with_param("folder", "trips")
                    .with_param("id", doc)
                    .with_param("subject_token", &token)
                    .with_body("x"),
            );
        }
        let list = net.dispatch(
            "browser:bob",
            Request::new(Method::Get, "https://webdocs.example/folder/trips")
                .with_param("subject_token", &token),
        );
        assert_eq!(list.body, "docs/trips/oslo\ndocs/trips/rome");
    }

    #[test]
    fn stranger_denied() {
        let (net, _, token) = setup();
        net.dispatch(
            "browser:bob",
            Request::new(Method::Post, "https://webdocs.example/docs")
                .with_param("folder", "f")
                .with_param("id", "d")
                .with_param("subject_token", &token)
                .with_body("private"),
        );
        let read = net.dispatch(
            "browser:anon",
            Request::new(Method::Get, "https://webdocs.example/docs/f/d"),
        );
        assert_eq!(read.status, Status::Forbidden);
    }

    #[test]
    fn append_requires_existing_doc() {
        let (net, _, token) = setup();
        let resp = net.dispatch(
            "browser:bob",
            Request::new(Method::Post, "https://webdocs.example/docs/f/ghost/append")
                .with_param("text", "x")
                .with_param("subject_token", &token),
        );
        assert_eq!(resp.status, Status::NotFound);
    }

    #[test]
    fn every_docs_route_answers_each_caller_as_pinned() {
        use crate::shell::route_matrix::{check, pin};
        // Columns: anonymous, another user, the owner, a host registrant,
        // the delegated host, a forged credential.
        let expected = [
            pin(
                "/folders",
                Post,
                "/folders?name=new",
                [401, 201, 201, 401, 401, 401],
            ),
            pin(
                "/docs",
                Post,
                "/docs?folder=new&id=d",
                [401, 201, 201, 401, 401, 401],
            ),
            pin(
                "/docs/",
                Get,
                "/docs/trips/report",
                [302, 302, 200, 302, 302, 302],
            ),
            pin(
                "/folder/",
                Get,
                "/folder/trips",
                [302, 302, 200, 302, 302, 302],
            ),
        ];
        check(WebDocs::ROUTES, &expected, |rig| &*rig.docs);
    }
}
